"""Tools for the four-setting correlation sum and the re-sorting argument.

The package separates three things that are easy to conflate:

* the estimators: a pooled per-trial sum over counterfactual data vs
  four separately normalized sub-run averages (``estimators``),
* the data models behind them: one trial row carrying all four
  outcomes vs four disjoint fixed-setting experiments (``core``),
* the re-sorting cascade that tries to rebuild counterfactual rows
  out of sub-run data, and the closure odds of that succeeding
  (``resort``).

``sources`` provides the simulators (an explicit local hidden-variable
model and a direct sampler of the two-outcome joint law) plus the CSV
interchange formats; ``cli`` wraps it all for the command line.
"""

from . import core, estimators, resort, rng, sources
from .core import *  # noqa: F403
from .estimators import *  # noqa: F403
from .resort import *  # noqa: F403
from .rng import *  # noqa: F403
from .sources import *  # noqa: F403

__version__ = "0.1.0"
# Each public name is written once, in its module's __all__.
__all__ = ["__version__"] + [n for m in (core, rng, sources, estimators, resort) for n in m.__all__]
