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

import math
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    CounterfactualDataset,
    PAIR_LABELS,
    SettingsQuad,
    SubRunDataset,
    SubRunPairs,
    _PAIR_ARMS,
    _Record,
)
from .rng import RngSpec, _DRAW_BLOCK
from .sources import CorrelationLaw

if TYPE_CHECKING:  # GammaResult.exact loads fractions when it is called
    from fractions import Fraction

__all__ = [
    "GammaResult",
    "gamma_pooled",
    "gamma_subruns",
    "split_random",
    "termwise_bound_check",
    "theory_gamma",
]


class GammaResult(_Record):
    """A Gamma estimate from the integer sum of products behind each term.

    ``n_used`` is the trial count and ``product_sums`` the sum of a(j)b(j)
    behind each of the four correlation terms (ab, ac, db, dc).
    """

    __slots__ = ("n_used", "product_sums")

    def __init__(self, n_used: tuple[int, int, int, int],
                 product_sums: tuple[int, int, int, int]) -> None:
        object.__setattr__(self, "n_used", n_used)
        object.__setattr__(self, "product_sums", product_sums)

    @property
    def per_term(self) -> tuple[float, ...]:
        """The raw correlations (<ab>, <ac>, <db>, <dc>)."""
        return tuple(s / m for s, m in zip(self.product_sums, self.n_used))

    def _ratio(self) -> tuple[int, int]:
        """Gamma's exact numerator over the least common multiple of the counts."""
        n = math.lcm(*self.n_used)
        (m0, m1, m2, m3), (s0, s1, s2, s3) = self.n_used, self.product_sums
        return s0 * (n // m0) + s1 * (n // m1) + s2 * (n // m2) - s3 * (n // m3), n

    @property
    def value(self) -> float:
        """Gamma with the minus on the dc term: the exact ratio, rounded once."""
        numerator, denominator = self._ratio()
        return numerator / denominator

    @property
    def exact(self) -> Fraction:
        """Gamma as a rational number, which bound checks compare.

        ``value`` is this number correctly rounded, so a Gamma just above
        2 can still read ``2.0``.  ``fractions`` loads on the first call.
        """
        from fractions import Fraction

        return Fraction(*self._ratio())


def gamma_pooled(data: CounterfactualDataset) -> GammaResult:
    """Gamma over a counterfactual dataset: one shared trial index.

    value = (1/N) * sum_j [a(j)b(j) + a(j)c(j) + d(j)b(j) - d(j)c(j)],
    guaranteed to lie in [-2, 2].
    """
    if data.n == 0:
        raise ValueError("empty dataset")
    arms = data.sequences
    sums = tuple(SubRunPairs(arms[x], arms[y]).product_sum() for x, y in _PAIR_ARMS)
    return GammaResult((data.n,) * 4, sums)


def gamma_subruns(data: SubRunDataset) -> GammaResult:
    """Gamma over four disjoint sub-runs, each term normalized by its own N.

    The per-term bounds are the only constraint: |value| <= 4, and the
    extremes are attainable (no Bell bound holds for disjoint sub-runs).
    """
    counts = data.counts
    if 0 in counts:
        raise ValueError(f"empty sub-run list: {PAIR_LABELS[counts.index(0)]}")
    return GammaResult(counts, tuple([pairs.product_sum() for pairs in data.lists]))


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
    arms = [s.values for s in data.sequences]
    sides = [(arms[x], arms[y]) for x, y in _PAIR_ARMS]
    # Each bounded integer takes its own draws from the stream, so the
    # blocks hold the codes of one whole draw, kept as uint8.
    g = rng.generator()
    codes = np.empty(n, dtype=np.uint8)
    for start in range(0, n, _DRAW_BLOCK):
        codes[start:start + _DRAW_BLOCK] = g.integers(0, 4, size=min(_DRAW_BLOCK, n - start))
    return SubRunDataset._partition(codes, sides, data.settings)


def termwise_bound_check(data: CounterfactualDataset) -> np.ndarray:
    """Evaluate a(b+c) + d(b-c) per trial and verify every value is +/-2.

    For two-valued outcomes, b+c is 0 exactly when b-c is not, so every
    per-trial value is +/-2 and their mean (which equals the pooled
    Gamma exactly: the same integer sum over the same n) can never leave
    [-2, 2].  Returns the values as a read-only int8 array.
    """
    if data.n == 0:
        raise ValueError("empty dataset")
    a, d, b, c = (s.values for s in data.sequences)
    per_trial = a * (b + c) + d * (b - c)
    if not bool(np.all(np.abs(per_trial) == 2)):
        # Unreachable for valid +/-1 data; guards against corrupted arrays.
        raise AssertionError("per-trial factorized value outside {+2, -2}")
    per_trial.setflags(write=False)  # int8 already: int8 +, - and * stay int8
    return per_trial


def theory_gamma(settings: SettingsQuad, law: CorrelationLaw) -> float:
    """Closed-form Gamma: E(a,b) + E(a,c) + E(d,b) - E(d,c)."""
    arms = settings.angles
    ab, ac, db, dc = (law.pair_correlation(arms[x], arms[y]) for x, y in _PAIR_ARMS)
    return ab + ac + db - dc
