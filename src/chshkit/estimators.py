"""The CHSH quantity Gamma in its two forms, and the per-trial bound.

Two estimators with deliberately different contracts:

* :func:`gamma_pooled` runs over a counterfactual dataset, where one
  trial index j spans all four terms.  Its value is bounded by 2 --
  exactly, not statistically -- because each trial contributes
  a(b+c) + d(b-c) = +/-2 (see :func:`termwise_bound_check`).
* :func:`gamma_subruns` runs over four disjoint experiments, each term
  normalized by its own trial count.  Nothing ties the terms together,
  so the only constraint is |Gamma| <= 4; no Bell bound applies.

:func:`split_random` bridges the two: it samples a feasible experiment
out of a counterfactual dataset by assigning every trial to one setting
pair uniformly and discarding the other two counterfactual outcomes.

All sums are accumulated in integer arithmetic and divided once, so the
+/-2 and <=2 assertions are exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    CounterfactualDataset,
    OutcomeSequence,
    PAIR_LABELS,
    SettingsQuad,
    SubRunDataset,
    SubRunPairs,
)
from .rng import RngSpec
from .sources import CorrelationLaw

__all__ = [
    "GammaResult",
    "BoundReport",
    "gamma_pooled",
    "gamma_subruns",
    "split_random",
    "termwise_bound_check",
    "theory_gamma",
]


@dataclass(frozen=True)
class GammaResult:
    """A Gamma estimate from the integer sum of products behind each term.

    ``n_used`` is the trial count and ``product_sums`` the sum of a(j)b(j)
    behind each of the four correlation terms (ab, ac, db, dc).
    """

    n_used: tuple[int, int, int, int]
    product_sums: tuple[int, int, int, int]

    @property
    def per_term(self) -> tuple[float, ...]:
        """The raw correlations (<ab>, <ac>, <db>, <dc>)."""
        return tuple(s / m for s, m in zip(self.product_sums, self.n_used))

    @property
    def value(self) -> float:
        """Gamma with the minus on the dc term, as a float for display."""
        s = self.product_sums
        if len(set(self.n_used)) == 1:
            # Shared divisor: divide the signed integer total once.
            return (s[0] + s[1] + s[2] - s[3]) / self.n_used[0]
        t = self.per_term
        return t[0] + t[1] + t[2] - t[3]

    @property
    def exact(self) -> Fraction:
        """Gamma as a rational number, which bound checks compare.

        Summing four separately rounded terms can put ``value`` an ulp
        past a bound the exact value meets.
        """
        e = [Fraction(s, m) for s, m in zip(self.product_sums, self.n_used)]
        return e[0] + e[1] + e[2] - e[3]


@dataclass(frozen=True)
class BoundReport:
    """Per-trial values of the factorized form a(b+c) + d(b-c).

    For two-valued outcomes, b+c is 0 exactly when b-c is not, so every
    per-trial value is +/-2 and their mean (which equals the pooled
    Gamma) can never leave [-2, 2].
    """

    per_trial_values: np.ndarray
    max_abs: float
    gamma: float


def gamma_pooled(data: CounterfactualDataset) -> GammaResult:
    """Gamma over a counterfactual dataset: one shared trial index.

    value = (1/N) * sum_j [a(j)b(j) + a(j)c(j) + d(j)b(j) - d(j)c(j)],
    guaranteed to lie in [-2, 2].
    """
    n = data.n
    if n == 0:
        raise ValueError("empty dataset")
    a, d = data.a_seq.values, data.d_seq.values
    b, c = data.b_seq.values, data.c_seq.values
    arms = ((a, b), (a, c), (d, b), (d, c))
    return GammaResult((n,) * 4, tuple(int(np.sum(x * y, dtype=np.int64)) for x, y in arms))


def gamma_subruns(data: SubRunDataset) -> GammaResult:
    """Gamma over four disjoint sub-runs, each term normalized by its own N.

    The per-term bounds are the only constraint: |value| <= 4, and the
    extremes are attainable (no Bell bound holds for disjoint sub-runs).
    """
    counts = data.counts
    if 0 in counts:
        raise ValueError(f"empty sub-run list: {PAIR_LABELS[counts.index(0)]}")
    return GammaResult(counts, tuple([pairs.product_sum() for _, pairs in data.items()]))


def split_random(data: CounterfactualDataset, rng: RngSpec) -> SubRunDataset:
    """Sample a feasible experiment out of a counterfactual dataset.

    Every trial index j is assigned to exactly one of the four setting
    pairs with probability 1/4; the list for pair xy keeps that trial's
    (x-setting, y-setting) outcomes and the two remaining counterfactual
    outcomes are dropped.  Source order is preserved within each list.
    """
    n = data.n
    if n < 4:
        raise ValueError(f"need at least 4 trials to split, got {n}")
    assignment = rng.generator().integers(0, 4, size=n)
    a, d = data.a_seq.values, data.d_seq.values
    b, c = data.b_seq.values, data.c_seq.values
    lists = []
    for code, (x, y) in enumerate(((a, b), (a, c), (d, b), (d, c))):
        mask = assignment == code
        lists.append(SubRunPairs(OutcomeSequence._of(x[mask]), OutcomeSequence._of(y[mask])))
    return SubRunDataset(*lists, settings=data.settings)


def termwise_bound_check(data: CounterfactualDataset) -> BoundReport:
    """Evaluate a(b+c) + d(b-c) per trial and verify every value is +/-2.

    The mean of the per-trial values equals the pooled Gamma exactly
    (same integer sum, same single division).
    """
    n = data.n
    if n == 0:
        raise ValueError("empty dataset")
    a, d = data.a_seq.values, data.d_seq.values
    b, c = data.b_seq.values, data.c_seq.values
    per_trial = a * (b + c) + d * (b - c)
    if not bool(np.all(np.abs(per_trial) == 2)):
        # Unreachable for valid +/-1 data; guards against corrupted arrays.
        raise AssertionError("per-trial factorized value outside {+2, -2}")
    gamma = int(np.sum(per_trial, dtype=np.int64)) / n
    frozen = per_trial.astype(np.int8)
    frozen.setflags(write=False)
    return BoundReport(per_trial_values=frozen, max_abs=2.0, gamma=gamma)


def theory_gamma(settings: SettingsQuad, law: CorrelationLaw) -> float:
    """Closed-form Gamma: E(a,b) + E(a,c) + E(d,b) - E(d,c)."""
    e = law.pair_correlation
    return (
        e(settings.a, settings.b)
        + e(settings.a, settings.c)
        + e(settings.d, settings.b)
        - e(settings.d, settings.c)
    )
