"""Domain types for CHSH trial data.

Outcomes are strictly two-valued (+1/-1, no undetected state), analyzer
angles are polarizer orientations and therefore live on [0, pi), and the
two dataset flavors mirror the two kinds of experiment:

* :class:`CounterfactualDataset` -- every trial carries outcomes for all
  four analyzer settings at once.  Only a hidden-variable model can
  produce such data; no feasible experiment can.
* :class:`SubRunDataset` -- four disjoint experiments, one per setting
  pair (ab, ac, db, dc), each a list of paired (arm A, arm B) outcomes.

Everything here is an immutable value; all operations are pure functions.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = [
    "Angle",
    "SettingsQuad",
    "OutcomeSequence",
    "SubRunPairs",
    "CounterfactualDataset",
    "SubRunDataset",
    "PAIR_LABELS",
]

#: Canonical order of the four setting-pair labels.
PAIR_LABELS = ("ab", "ac", "db", "dc")
# Each setting pair as indices into (a, d, b, c), in PAIR_LABELS order.
_PAIR_ARMS = ((0, 2), (0, 3), (1, 2), (1, 3))


def _is_count(x) -> bool:
    """An integer, numpy's included, and not a bool."""
    # A plain int, the common case, skips the slower ABC check.
    return type(x) is int or (isinstance(x, numbers.Integral) and not isinstance(x, bool))


def _as_outcome_array(values) -> np.ndarray:
    """Validate and freeze a 1-d array of +1/-1 outcomes (stored as int8)."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError("outcome sequence must be one-dimensional")
    try:
        # True == 1, so a bool array is turned away by its dtype.
        ok = arr.dtype != bool and np.count_nonzero((arr == 1) | (arr == -1)) == arr.size
    except TypeError:
        raise ValueError("outcomes must be +1 or -1") from None
    if not ok:
        raise ValueError("outcomes must be +1 or -1")
    out = arr.astype(np.int8)
    out.setflags(write=False)
    return out


class _Record:
    """An immutable value made of the fields its ``__slots__`` names, in order.

    Each record's own ``__init__`` validates and sets the fields through
    ``object.__setattr__``; after that, assignment and deletion raise.
    Equality and hash go by the fields, within one class; copies and
    pickles are rebuilt through the constructor, and so validated again.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Angle(_Record):
    """An analyzer orientation in radians, normalized to [0, pi).

    Polarizer orientations are pi-periodic, so two angles differing by a
    multiple of pi are the same setting and normalize to the same value.
    """

    __slots__ = ("radians",)

    def __init__(self, radians: float) -> None:
        r = float(radians)
        if not math.isfinite(r):
            raise ValueError(f"angle must be finite, got {radians!r}")
        r %= math.pi
        # A tiny negative angle rounds up to exactly pi, which is 0 again.
        object.__setattr__(self, "radians", 0.0 if r == math.pi else r)

    @classmethod
    def from_degrees(cls, degrees: float) -> Angle:
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.radians)


class SettingsQuad(_Record):
    """The four analyzer angles: a, d on arm A; b, c on arm B.

    The two settings on each arm must be distinct (after normalization),
    otherwise there are not four distinct experiment combinations.
    """

    __slots__ = ("a", "d", "b", "c")

    def __init__(self, a: Angle, d: Angle, b: Angle, c: Angle) -> None:
        if a.radians == d.radians:
            raise ValueError("arm A settings must differ: a == d")
        if b.radians == c.radians:
            raise ValueError("arm B settings must differ: b == c")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @classmethod
    def from_degrees(cls, a: float, d: float, b: float, c: float) -> SettingsQuad:
        return cls(
            Angle.from_degrees(a),
            Angle.from_degrees(d),
            Angle.from_degrees(b),
            Angle.from_degrees(c),
        )

    @property
    def angles(self) -> tuple[Angle, ...]:
        """(a, d, b, c), the order ``_PAIR_ARMS`` indexes."""
        return (self.a, self.d, self.b, self.c)


class OutcomeSequence(_Record):
    """An ordered, immutable list of +1/-1 detector outcomes for one arm."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        object.__setattr__(self, "values", _as_outcome_array(values))

    @classmethod
    def _of(cls, values: np.ndarray) -> OutcomeSequence:
        """Freeze, unchecked and uncopied, an int8 +1/-1 array only chshkit holds."""
        values.setflags(write=False)
        seq = object.__new__(cls)
        object.__setattr__(seq, "values", values)
        return seq

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OutcomeSequence):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        shown = ",".join(f"{v:+d}" for v in self.values[:8])
        tail = ",..." if len(self) > 8 else ""
        return f"OutcomeSequence([{shown}{tail}], n={len(self)})"

    def plus_count(self) -> int:
        """Number of +1 entries."""
        return int(np.count_nonzero(self.values == 1))


class SubRunPairs(_Record):
    """Ordered outcome pairs from one fixed-setting sub-run.

    The pairing within a trial is physical and immutable: any reordering
    must move a pair as a unit, which is why ``resort`` moves each dragged
    side through the class order of its aligned side.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: OutcomeSequence, b: OutcomeSequence) -> None:
        if len(a) != len(b):
            raise ValueError(f"paired sequences must have equal length: {len(a)} != {len(b)}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __len__(self) -> int:
        return self.a.values.size

    def product_sum(self) -> int:
        """Exact integer sum of per-trial products a(j)*b(j), -1 where a, b differ."""
        return len(self) - 2 * int(np.count_nonzero(self.a.values != self.b.values))


class CounterfactualDataset(_Record):
    """N trials each carrying outcomes for all four settings a, d, b, c.

    A local-hidden-variable construct: the four sequences share a single
    trial index j (one hidden lambda per trial decided every outcome), so
    each trial answers "what would either arm have shown under either
    setting".  Feasible experiments can never record this.
    """

    __slots__ = ("a_seq", "d_seq", "b_seq", "c_seq", "settings")

    def __init__(self, a_seq: OutcomeSequence, d_seq: OutcomeSequence, b_seq: OutcomeSequence,
                 c_seq: OutcomeSequence, settings: SettingsQuad | None = None) -> None:
        if len({len(a_seq), len(d_seq), len(b_seq), len(c_seq)}) != 1:
            raise ValueError("all four outcome sequences must have equal length")
        object.__setattr__(self, "a_seq", a_seq)
        object.__setattr__(self, "d_seq", d_seq)
        object.__setattr__(self, "b_seq", b_seq)
        object.__setattr__(self, "c_seq", c_seq)
        object.__setattr__(self, "settings", settings)

    @property
    def sequences(self) -> tuple[OutcomeSequence, ...]:
        """(a_seq, d_seq, b_seq, c_seq), the order ``_PAIR_ARMS`` indexes."""
        return (self.a_seq, self.d_seq, self.b_seq, self.c_seq)

    @property
    def n(self) -> int:
        return len(self.a_seq)


class SubRunDataset(_Record):
    """Four disjoint fixed-setting experiments: ab, ac, db, dc.

    The lists may have different lengths; estimation requires each to be
    nonempty but construction does not (a random split can legitimately
    leave a list empty).
    """

    __slots__ = ("ab", "ac", "db", "dc", "settings")

    def __init__(self, ab: SubRunPairs, ac: SubRunPairs, db: SubRunPairs, dc: SubRunPairs,
                 settings: SettingsQuad | None = None) -> None:
        object.__setattr__(self, "ab", ab)
        object.__setattr__(self, "ac", ac)
        object.__setattr__(self, "db", db)
        object.__setattr__(self, "dc", dc)
        object.__setattr__(self, "settings", settings)

    @property
    def lists(self) -> tuple[SubRunPairs, ...]:
        """(ab, ac, db, dc), in PAIR_LABELS order."""
        return (self.ab, self.ac, self.db, self.dc)

    @property
    def counts(self) -> tuple[int, int, int, int]:
        return (len(self.ab), len(self.ac), len(self.db), len(self.dc))

    @classmethod
    def _partition(cls, codes: np.ndarray, sides, settings: SettingsQuad | None = None) -> SubRunDataset:
        """List k keeps ``sides[k]``'s two +1/-1 int8 arrays where ``codes == k``, in order.

        Unchecked, like ``OutcomeSequence._of``; one mask at a time, and ``x[mask]`` copies.
        """
        lists = []
        for k, (x, y) in enumerate(sides):
            mask = codes == k
            lists.append(SubRunPairs(OutcomeSequence._of(x[mask]), OutcomeSequence._of(y[mask])))
        return cls(*lists, settings=settings)
