"""Constrained ranking under multiplicative group bias.

A small numpy library with four layers:

* :mod:`biasrank.model` - items, groups, bias factors, discount vectors,
  rankings, and utility evaluation;
* :mod:`biasrank.constraints` - prefix lower-bound matrices, their
  constructions, satisfaction and feasibility checks;
* :mod:`biasrank.solver` - unconstrained, greedy-with-lookahead, and
  brute-force optimal rankings;
* :mod:`biasrank.stats` / :mod:`biasrank.experiments` - closed-form
  results for exchangeable two-group instances and the seeded Monte Carlo
  harness that checks them.

The :mod:`biasrank.cli` module exposes everything as ``biasrank``
subcommands.
"""

from types import ModuleType as _ModuleType

from .model import (
    BiasModel,
    DiscountDiagnostics,
    DiscountVector,
    Instance,
    Ranking,
    instance_from_json,
    instance_to_json,
    observed_utilities,
    prefix_group_counts,
    ranking_utility,
    validate_discount,
)
from .constraints import (
    ConstraintMatrix,
    InfeasibleConstraintsError,
    NonDisjointGroupsError,
    check_feasibility,
    derived_constraints,
    satisfies,
    simple_constraints,
)
from .solver import (
    rank_constrained_bruteforce,
    rank_constrained_greedy,
    rank_unconstrained,
)
from .stats import (
    Distribution,
    Empirical,
    LogNormal,
    Normal,
    SeedSpec,
    ShiftedScaled,
    Uniform,
    binomial_negative_moment,
    distribution_from_json,
    expected_Nkb,
    expected_Pl,
    pmf_Nkb,
    pmf_Pl,
    tail_bound_Nkb,
    utility_with_constraints_formula,
    utility_without_constraints_formula,
)
from .experiments import (
    OrderStatsReport,
    SupernumeraryConfig,
    SupernumeraryReport,
    SweepReport,
    TrialConfig,
    TrialReport,
    apply_score_shift,
    estimate_order_stats,
    run_sweep,
    run_trial,
    run_trials,
    supernumerary_compare,
    supernumerary_seats,
)

__version__ = "0.1.0"

# The public surface is every name imported above; submodules are not in it.
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))
)
