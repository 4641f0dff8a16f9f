"""Core types and sequence operations."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chshkit import (
    Angle,
    CounterfactualDataset,
    OutcomeSequence,
    PAIR_LABELS,
    SettingsQuad,
    SubRunDataset,
    SubRunPairs,
    gamma_subruns,
)
from chshkit.core import _PAIR_ARMS
from helpers import all_sign_rows, pairs, seq, switch_pattern

sign_lists = st.lists(st.sampled_from((1, -1)), min_size=1, max_size=50)


class TestAngle:
    def test_normalizes_modulo_pi(self):
        assert Angle(math.pi).radians == 0.0
        assert Angle(1.0 + 3 * math.pi).radians == pytest.approx(1.0)
        assert Angle.from_degrees(180.0).radians == 0.0
        assert Angle.from_degrees(-22.5).degrees == pytest.approx(157.5)

    def test_degrees_round_trip(self):
        assert Angle.from_degrees(67.5).degrees == pytest.approx(67.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            Angle(bad)

    def test_value_equality(self):
        assert Angle.from_degrees(45.0) == Angle(math.pi / 4)

    def test_tiny_negative_angle_is_zero(self):
        # -1e-20 % pi rounds to pi itself; the angle is 0.
        assert Angle(-1e-20).radians == 0.0
        with pytest.raises(ValueError, match="a == d"):
            SettingsQuad(Angle(0.0), Angle(-1e-20), Angle(0.1), Angle(0.2))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_radians_stay_in_half_open_range(self, x):
        assert 0.0 <= Angle(x).radians < math.pi


class TestSettingsQuad:
    def test_holds_four_angles(self):
        q = SettingsQuad.from_degrees(0.0, 45.0, 22.5, -22.5)
        assert q.a.degrees == 0.0
        assert q.d.degrees == 45.0
        assert q.b.degrees == 22.5
        assert q.c.degrees == pytest.approx(157.5)

    def test_rejects_equal_arm_a_settings(self):
        with pytest.raises(ValueError, match="a == d"):
            SettingsQuad.from_degrees(30.0, 30.0, 0.0, 45.0)

    def test_rejects_equal_arm_b_settings_modulo_pi(self):
        # 180 degrees normalizes onto 0: the same polarizer orientation.
        with pytest.raises(ValueError, match="b == c"):
            SettingsQuad.from_degrees(0.0, 45.0, 180.0, 0.0)


class TestOutcomeSequence:
    def test_accepts_only_plus_minus_one(self):
        for bad in ([0], [2], [1, -1, 3], ["x"], ["1", "-1"], "+1", [1j, -1], [0.6 + 0.8j], [True, True]):
            with pytest.raises(ValueError):
                OutcomeSequence(np.asarray(bad))

    def test_rejects_a_structured_array(self):
        # numpy cannot compare a structured array with a number at all.
        with pytest.raises(ValueError, match="^outcomes must be \\+1 or -1$"):
            OutcomeSequence(np.ones(3, dtype=[("x", np.int8)]))

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            OutcomeSequence(np.ones((2, 2), dtype=np.int8))

    def test_is_immutable(self):
        s = seq(1, -1, 1)
        with pytest.raises(ValueError):
            s.values[0] = -1

    def test_len_iter_getitem(self):
        s = seq(1, -1, 1)
        assert len(s) == 3
        assert list(s) == [1, -1, 1]
        assert s[1] == -1

    def test_equality_by_content_and_unhashable(self):
        assert seq(1, -1) == seq(1, -1)
        assert seq(1, -1) != seq(-1, 1)
        with pytest.raises(TypeError, match="unhashable"):
            hash(seq(1, -1, 1))

    def test_equality_with_another_type_is_false(self):
        assert (seq(1, -1) == 1) is False
        assert seq(1, -1) != [1, -1]

    def test_repr_shows_at_most_eight_outcomes(self):
        assert repr(seq(1, -1, 1)) == "OutcomeSequence([+1,-1,+1], n=3)"
        nine = seq(1, -1, 1, 1, -1, -1, 1, 1, -1)
        assert repr(nine) == "OutcomeSequence([+1,-1,+1,+1,-1,-1,+1,+1,...], n=9)"

    def test_plus_count_and_tuple(self):
        s = seq(1, -1, 1, 1)
        assert s.plus_count() == 3
        assert tuple(s) == (1, -1, 1, 1)

    def test_empty_sequence_allowed(self):
        assert len(OutcomeSequence(np.empty(0, dtype=np.int8))) == 0


class TestSubRunPairs:
    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            pairs([1, 1], [1])

    def test_sides_hold_the_pairs(self):
        p = SubRunPairs(seq(1, -1), seq(-1, -1))
        assert len(p) == 2
        assert p.a.values.tolist() == [1, -1]
        assert p.b.values.tolist() == [-1, -1]

    def test_product_sum_is_exact_integer(self):
        p = pairs([1, 1, -1], [1, -1, -1])
        assert p.product_sum() == 1 - 1 + 1


class TestDatasets:
    def test_counterfactual_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            CounterfactualDataset(seq(1), seq(1), seq(1), seq(1, 1))

    def test_counterfactual_n(self):
        d = CounterfactualDataset(seq(1, -1), seq(1, 1), seq(-1, -1), seq(1, -1))
        assert d.n == 2

    def test_subrun_items_canonical_order(self):
        d = SubRunDataset(pairs([1], [1]), pairs([1], [-1]), pairs([-1], [1]), pairs([-1], [-1]))
        assert tuple(label for label, _ in d.items()) == PAIR_LABELS
        assert d.counts == (1, 1, 1, 1)

    def test_pair_arms_follow_the_labels(self):
        assert ["adbc"[i] + "adbc"[j] for i, j in _PAIR_ARMS] == list(PAIR_LABELS)

    def test_subrun_lists_may_differ_in_length(self):
        d = SubRunDataset(
            pairs([1], [1]), pairs([1, -1], [1, 1]), pairs([-1] * 3, [1] * 3), pairs([], [])
        )
        assert d.counts == (1, 2, 3, 0)


class TestSequencesIdentical:
    """Identity of sequences is ``==``: same length, same value everywhere."""

    def test_identity_case(self):
        assert seq(1, -1, 1) == seq(1, -1, 1)

    def test_same_counts_different_switches(self):
        assert seq(1, -1, 1) != seq(1, 1, -1)

    def test_length_mismatch(self):
        assert seq(1) != seq(1, -1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equivalence_with_count_first_and_switches_exhaustive(self, n):
        # Elementwise identity is equivalent to: equal length, equal
        # +1-count, equal first element, equal switch pattern.  Checked
        # for every ordered pair of sign sequences of each length.
        rows = all_sign_rows(n)
        seqs = [OutcomeSequence(row) for row in rows]
        feats = [(len(s), s.plus_count(), s[0], tuple(switch_pattern(s))) for s in seqs]
        for i, s in enumerate(seqs):
            for j, t in enumerate(seqs):
                assert (s == t) == (feats[i] == feats[j])

    def test_count_plus_switches_alone_do_not_suffice(self):
        # At half +1-count, negation preserves both the count and the
        # switch pattern, so the first element is load-bearing.
        s, t = seq(1, -1), seq(-1, 1)
        assert s.plus_count() == t.plus_count()
        assert switch_pattern(s) == switch_pattern(t)
        assert s != t


class TestSwitchPattern:
    """The oracle in ``helpers``: the first element and the switches fix a sequence."""

    @pytest.mark.parametrize(
        "values,expected",
        [
            ((1, 1, -1, -1, 1), [2, 4]),
            ((1, 1, 1), []),
            ((-1, 1, -1), [1, 2]),
            ((1,), []),
        ],
    )
    def test_examples(self, values, expected):
        assert switch_pattern(seq(*values)) == expected

    def test_empty_sequence_error(self):
        with pytest.raises(ValueError, match="empty sequence"):
            switch_pattern(OutcomeSequence(np.empty(0, dtype=np.int8)))

    @given(sign_lists)
    def test_reconstruction(self, values):
        # First element plus switch positions determine the sequence.
        s = seq(*values)
        rebuilt = []
        current = s[0]
        switches = set(switch_pattern(s))
        for i in range(len(s)):
            if i in switches:
                current = -current
            rebuilt.append(current)
        assert rebuilt == list(s)


def correlation(s: OutcomeSequence, t: OutcomeSequence) -> float:
    """The per-term correlation <st> the estimators report for one list."""
    p = SubRunPairs(s, t)
    return gamma_subruns(SubRunDataset(p, p, p, p)).per_term[0]


class TestCorrelation:
    @pytest.mark.parametrize(
        "sa,sb,expected",
        [
            ((1, 1), (1, 1), 1.0),
            ((1, -1), (1, 1), 0.0),
            ((1, -1, 1, -1), (-1, 1, -1, 1), -1.0),
        ],
    )
    def test_examples(self, sa, sb, expected):
        assert correlation(seq(*sa), seq(*sb)) == expected

    def test_length_mismatch_error(self):
        with pytest.raises(ValueError, match="equal length"):
            correlation(seq(1), seq(1, 1))

    def test_empty_error(self):
        empty = OutcomeSequence(np.empty(0, dtype=np.int8))
        with pytest.raises(ValueError, match="empty"):
            correlation(empty, empty)

    @given(sign_lists)
    def test_self_correlation_is_one(self, values):
        s = seq(*values)
        assert correlation(s, s) == 1.0

    @given(sign_lists, st.randoms(use_true_random=False))
    def test_bounded_with_equality_iff_same_or_negated(self, values, rnd):
        s = seq(*values)
        shuffled = list(values)
        rnd.shuffle(shuffled)
        t = seq(*shuffled)
        r = correlation(s, t)
        assert -1.0 <= r <= 1.0
        if abs(r) == 1.0:
            assert list(t) == list(s) or list(t) == [-v for v in s]
