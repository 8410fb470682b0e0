"""Constrained ranking under multiplicative group bias.

A small numpy library with four layers:

* :mod:`biasrank.model` - items, groups, bias factors, discount vectors,
  rankings, and utility evaluation;
* :mod:`biasrank.constraints` - prefix lower-bound matrices, their
  constructions and the satisfaction check;
* :mod:`biasrank.solver` - unconstrained, greedy-with-lookahead (which
  alone decides feasibility), and brute-force optimal rankings;
* :mod:`biasrank.stats` / :mod:`biasrank.experiments` - closed-form
  results for exchangeable two-group instances and the seeded Monte Carlo
  harness that checks them.

The :mod:`biasrank.cli` module exposes everything as ``biasrank``
subcommands.

The package's public surface is the union of the ``__all__`` lists of
model, constraints, solver, stats and experiments: a name is public here
exactly when its submodule exports it, and it is declared only there.
"""

from . import constraints, experiments, model, solver, stats
from .model import *
from .constraints import *
from .solver import *
from .stats import *
from .experiments import *

__version__ = "0.1.0"

__all__ = sorted({name for mod in (model, constraints, solver, stats, experiments) for name in mod.__all__})
