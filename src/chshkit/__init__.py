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

from .core import (
    PAIR_LABELS,
    Angle,
    CounterfactualDataset,
    OutcomeSequence,
    SettingsQuad,
    SubRunDataset,
    SubRunPairs,
    correlation,
    sequences_identical,
    switch_pattern,
)
from .estimators import (
    BoundReport,
    GammaResult,
    gamma_pooled,
    gamma_subruns,
    split_random,
    termwise_bound_check,
    theory_gamma,
)
from .resort import (
    STABLE,
    ResortPolicy,
    ResortReport,
    TrialPermutation,
    align_permutation,
    closure_probability,
    resort_cascade,
    trim_to_shortest,
)
from .rng import RngSpec
from .sources import (
    PHOTON_OPTIMAL_QUAD,
    SIGN_MALUS,
    SPIN_OPTIMAL_QUAD,
    CorrelationLaw,
    CsvFormatError,
    LhvModel,
    generate_subruns,
    ingest_counterfactual_csv,
    ingest_csv,
    lhv_generate,
    lhv_malus_correlation,
    lhv_outcomes,
    qm_generate,
    write_counterfactual_csv,
    write_subrun_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "PAIR_LABELS",
    "Angle",
    "SettingsQuad",
    "OutcomeSequence",
    "SubRunPairs",
    "CounterfactualDataset",
    "SubRunDataset",
    "sequences_identical",
    "switch_pattern",
    "correlation",
    # rng
    "RngSpec",
    # sources
    "CorrelationLaw",
    "PHOTON_OPTIMAL_QUAD",
    "SPIN_OPTIMAL_QUAD",
    "LhvModel",
    "SIGN_MALUS",
    "lhv_outcomes",
    "lhv_generate",
    "lhv_malus_correlation",
    "qm_generate",
    "generate_subruns",
    "CsvFormatError",
    "ingest_csv",
    "ingest_counterfactual_csv",
    "write_subrun_csv",
    "write_counterfactual_csv",
    # estimators
    "GammaResult",
    "BoundReport",
    "gamma_pooled",
    "gamma_subruns",
    "split_random",
    "termwise_bound_check",
    "theory_gamma",
    # resort
    "TrialPermutation",
    "ResortPolicy",
    "STABLE",
    "align_permutation",
    "ResortReport",
    "resort_cascade",
    "closure_probability",
    "trim_to_shortest",
]
