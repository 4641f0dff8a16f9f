"""The re-sorting cascade and its closure diagnostics.

Sub-run Gamma only factorizes into the bounded form a(b+c) + d(b-c)
when the shared-setting factor sequences of different terms are
elementwise identical.  Re-sorting tries to manufacture that identity by
permuting whole trials:

1. the ac list is re-sorted so its a-side matches the ab list's a-side,
   dragging its c-side along;
2. that new c ordering is cascaded to the dc list (re-sorted on its
   c-side), dragging its d-side along;
3. the new d ordering is cascaded to the db list (re-sorted on its
   d-side), dragging its b-side along.

The circuit closes only if the dragged-along b-side of step 3 ends up
identical to the ab list's b-side; that closure is necessary for the
factorized grouping -- and hence the |Gamma| <= 2 bound -- to apply.
For independently collected sub-runs it essentially never happens:
two independent uniform re-sortings of an n-element sequence with k
ones coincide with probability 1/C(n, k).

Re-sorting can never change the value of Gamma (each term's sum is
permutation-invariant); what it changes is factorizability.  The
cascade therefore reports per-step feasibility (+1-count matches), the
closure verdict with its Hamming distance (a step whose counts mismatch
takes a maximum-agreement matching), and the factorized Gamma when
every step was feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OutcomeSequence, SubRunDataset, SubRunPairs, _is_count
from .estimators import gamma_subruns
from .rng import RngSpec, _DRAW_BLOCK

__all__ = [
    "ResortPolicy",
    "STABLE",
    "ResortReport",
    "resort_cascade",
    "closure_probability",
    "trim_to_shortest",
]


@dataclass(frozen=True)
class ResortPolicy:
    """How to choose among the many valid re-sortings.

    Without an ``rng`` the policy is stable (:data:`STABLE`): it preserves
    source order within each value class and is fully deterministic.
    With one it is uniform-random (:meth:`uniform_random`): it draws the
    within-class bijection uniformly from ``rng``.
    """

    rng: RngSpec | None = None

    def __post_init__(self) -> None:
        if self.rng is not None and not isinstance(self.rng, RngSpec):
            raise TypeError(f"resort policy rng must be an RngSpec or None, got {self.rng!r}")

    @classmethod
    def uniform_random(cls, rng: RngSpec) -> ResortPolicy:
        if rng is None:
            raise ValueError("uniform-random policy requires an rng")
        return cls(rng)


STABLE = ResortPolicy()


def _class_matching(
    target: np.ndarray, source: np.ndarray, drag: np.ndarray, g: np.random.Generator | None
) -> tuple[np.ndarray, int]:
    """Move ``drag``, indexed like source, as source is carried onto target.

    +1 source positions fill +1 target slots and likewise for -1; when
    class sizes mismatch the leftovers are paired off across classes, so
    agreement is maximal (n - |count deficit|).  With ``g`` given, the
    within-class assignment is drawn uniformly; otherwise both sides are
    taken in ascending position order (the unique stable matching).
    Slot i of the result holds drag's entry for the source trial that
    lands at target slot i.  Returns it with the deficit, target's +1
    count minus source's.
    """
    t_minus, s_minus = target != 1, source != 1
    t_plus = target.size - int(np.count_nonzero(t_minus))
    s_plus = source.size - int(np.count_nonzero(s_minus))
    # Rank key: +1 positions first, each class in position order.
    t_order = t_minus.argsort(kind="stable")
    s_order = s_minus.argsort(kind="stable")
    if g is not None:
        # In place, drawing exactly what g.permutation of each class would.
        g.shuffle(s_order[:s_plus])
        g.shuffle(s_order[s_plus:])
    if t_plus != s_plus:
        # The side with more +1s moves its unmatched +1s behind its -1s,
        # which pairs them with the other side's unmatched -1s.
        lo, hi = sorted((t_plus, s_plus))
        order = t_order if t_plus > s_plus else s_order
        order[lo:] = np.concatenate((order[hi:], order[lo:hi]))
    moved = np.empty_like(drag)
    moved[t_order] = drag[s_order]
    return moved, t_plus - s_plus


@dataclass(frozen=True)
class ResortReport:
    """Everything the cascade found.

    Step order is the cascade order: the re-sorted terms are ac, dc, db
    (terms 2, 4, 3 of the four-term sum), and ``count_deficits`` and
    ``feasible`` follow it.  A deficit is the target's +1-count minus the
    source's, and a step is ``feasible`` (exactly alignable) when it is
    0.  ``hamming_b`` compares the ab list's b-side with the dragged-along
    b-side of the final step, and the cascade reaches ``closure`` when it
    is 0.  ``gamma_resorted`` is the factorized evaluation and is None
    unless every step was feasible.
    """

    count_deficits: tuple[int, int, int]
    hamming_b: int
    gamma_subruns: float
    gamma_resorted: float | None

    @property
    def feasible(self) -> tuple[bool, bool, bool]:
        return tuple(deficit == 0 for deficit in self.count_deficits)

    @property
    def all_feasible(self) -> bool:
        return all(self.feasible)

    @property
    def closure(self) -> bool:
        return self.hamming_b == 0


def resort_cascade(data: SubRunDataset, policy: ResortPolicy = STABLE) -> ResortReport:
    """Run the full re-sorting cascade over equal-length sub-runs.

    Raises on unequal lengths (see :func:`trim_to_shortest` for the
    lossy preprocessor) and on empty lists.  Count-infeasible steps are
    recorded, not raised: the cascade completes with maximum-agreement
    matchings so the closure verdict and Hamming distance always exist.
    """
    counts = data.counts
    if len(set(counts)) != 1:
        raise ValueError(f"cascade requires equal sub-run lengths, got {counts}")
    gamma_plain = gamma_subruns(data).value  # also rejects empty lists
    (a1, b1), ac, db, dc = [(p.a.values, p.b.values) for p in data.lists]

    # Each step as (aligned side, dragged side), in cascade order: ac on
    # its a-side, dc on its c-side (to the dragged-along c), db on its
    # d-side (to the dragged-along d).  The dragged side, moved with its
    # pairs, is the next step's target.
    target, deficits, dragged = a1, [], []
    for index, (aligned, drag) in enumerate((ac, dc[::-1], db)):
        g = None if policy.rng is None else policy.rng.derive(index).generator()
        target, deficit = _class_matching(target, aligned, drag, g)
        deficits.append(deficit)
        dragged.append(target)
    c2, d4, b3 = dragged

    factored = None
    if not any(deficits):
        # Every step feasible: the factorized grouping <a1*(b1 + c2) + d4*(b3 - c2)>.
        factored = int((a1 * (b1 + c2) + d4 * (b3 - c2)).sum(dtype=np.int64)) / a1.size
    return ResortReport(
        count_deficits=tuple(deficits),
        hamming_b=int(np.count_nonzero(b1 != b3)),
        gamma_subruns=gamma_plain,
        gamma_resorted=factored,
    )


def _arrangements(w: np.ndarray, k: int) -> np.ndarray:
    """``((w >> 11) * 2.0**-53).argsort(axis=1, kind="stable") < k`` for
    rows of raw 64-bit Philox words; overwrites ``w``.

    ``(w >> 11) * 2**-53`` is the double ``Generator.random`` builds from
    ``w``.  Each key is ``w`` with its low 11 bits cleared, which orders
    like that double, and bit 0 set in slots k and up.  Keys of distinct
    doubles differ in their top 53 bits, so the tag orders only equal
    doubles, slots below k first, as a stable argsort orders ties:
    sorting each row of keys moves the tags as that argsort moves slots.
    """
    w &= ~np.uint64(0x7FF)
    w |= np.arange(w.shape[1]) >= k
    w.sort(axis=1)
    return np.bitwise_and(w, 1, out=w) == 0


def closure_probability(
    n: int,
    k: int,
    mode: str = "exact",
    *,
    trials: int | None = None,
    rng: RngSpec | None = None,
) -> float:
    """Probability that two independent uniform re-sortings coincide.

    Both sequences have n elements with k ones; each re-sorting is
    uniform over the C(n, k) distinct arrangements, so the exact answer
    is 1 / C(n, k).  Monte-Carlo mode estimates the same quantity by
    simulating both shuffles (``trials`` and ``rng`` required; exact mode
    rejects them).
    """
    if not (_is_count(n) and _is_count(k)) or n < 0 or k < 0 or k > n:
        raise ValueError(f"need integers 0 <= k <= n, got n={n}, k={k}")
    if mode == "exact":
        if trials is not None or rng is not None:
            raise ValueError("exact mode takes no trials or rng")
        # 1/C(n, k) rounds to 0.0 below half the smallest subnormal,
        # 2**-1075.  Past that, with a margin for lgamma's rounding, the
        # answer is 0.0 and building C(n, k) would only cost time.
        log_comb = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        if log_comb > 1075 * math.log(2) + 1.0 + 1e-12 * math.lgamma(n + 1):
            return 0.0
        # int/int true division: correctly rounds (underflows to 0.0 for
        # huge C(n, k)) where float(comb) would overflow and raise.
        return 1 / math.comb(n, k)
    if mode != "monte-carlo":
        raise ValueError(f"unknown mode {mode!r}")
    if not _is_count(trials) or trials < 1:
        raise ValueError("monte-carlo mode requires an integer trials >= 1")
    if rng is None:
        raise ValueError("monte-carlo mode requires an rng")
    if n == 0:
        return 1.0  # one arrangement: every pair of shuffles coincides
    bits = rng.generator().bit_generator
    record = np.dtype((np.void, n))  # a row of n bools compared as one value

    # Each chunk draws all of side 1, then all of side 2, a piece of
    # ``rows`` rows (a draw block of words, or one row) at a time.  Philox
    # words come in order, one per double of ``Generator.random``, so the
    # pieces hold the words one (m, n) draw of doubles would use: a seed's
    # estimate depends on the chunk size but not on the piece size.
    chunk = max(1, 1_000_000 // n)
    rows = max(1, _DRAW_BLOCK // n)
    ones_1 = np.empty((min(chunk, trials), n), dtype=bool)
    hits = 0
    for done in range(0, trials, chunk):
        m = min(chunk, trials - done)
        pieces = [slice(start, min(start + rows, m)) for start in range(0, m, rows)]
        for piece in pieces:
            ones_1[piece] = _arrangements(bits.random_raw((piece.stop - piece.start, n)), k)
        for piece in pieces:
            ones_2 = _arrangements(bits.random_raw((piece.stop - piece.start, n)), k)
            hits += int(np.count_nonzero(ones_2.view(record) == ones_1[piece].view(record)))
    return hits / trials


def trim_to_shortest(data: SubRunDataset) -> SubRunDataset:
    """Truncate all four lists to the shortest length.  Lossy."""
    m = min(data.counts)
    # Slices of frozen arrays are frozen too.
    lists = (SubRunPairs(OutcomeSequence._of(p.a.values[:m]), OutcomeSequence._of(p.b.values[:m]))
             for p in data.lists)
    return SubRunDataset(*lists, settings=data.settings)
