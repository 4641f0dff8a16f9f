"""Gamma estimators, the per-trial factorized bound, and random splitting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from chshkit import (
    CorrelationLaw,
    CounterfactualDataset,
    GammaResult,
    OutcomeSequence,
    PHOTON_OPTIMAL_QUAD,
    RngSpec,
    SIGN_MALUS,
    SPIN_OPTIMAL_QUAD,
    SettingsQuad,
    SubRunDataset,
    gamma_pooled,
    gamma_subruns,
    lhv_generate,
    split_random,
    termwise_bound_check,
    theory_gamma,
)
from helpers import exact_two_dataset, pairs, random_counterfactual, seq

ROOT8 = 2.0 * math.sqrt(2.0)


def one_trial(a, d, b, c) -> CounterfactualDataset:
    return CounterfactualDataset(seq(a), seq(d), seq(b), seq(c))


class TestGammaPooled:
    @pytest.mark.parametrize(
        "trial,expected",
        [
            ((1, 1, 1, 1), 2.0),
            ((1, 1, -1, 1), -2.0),
        ],
    )
    def test_single_trial_examples(self, trial, expected):
        assert gamma_pooled(one_trial(*trial)).value == expected

    def test_two_trial_average(self):
        data = CounterfactualDataset(seq(1, 1), seq(1, 1), seq(1, -1), seq(1, 1))
        assert gamma_pooled(data).value == 0.0

    def test_per_term_and_sign_convention(self):
        r = gamma_pooled(one_trial(1, 1, 1, 1))
        assert r.per_term == (1.0, 1.0, 1.0, 1.0)
        assert r.value == r.per_term[0] + r.per_term[1] + r.per_term[2] - r.per_term[3]
        assert r.n_used == (1, 1, 1, 1)

    def test_empty_dataset_error(self):
        empty = CounterfactualDataset(seq(), seq(), seq(), seq())
        with pytest.raises(ValueError, match="empty dataset"):
            gamma_pooled(empty)

    @given(st.integers(1, 2_000), st.integers(0, 2**32 - 1))
    @hyp_settings(max_examples=40, deadline=None)
    def test_product_sums_match_the_sum_of_products(self, n, seed):
        data = random_counterfactual(RngSpec(seed), n)
        a, d = data.a_seq.values, data.d_seq.values
        b, c = data.b_seq.values, data.c_seq.values
        arms = ((a, b), (a, c), (d, b), (d, c))
        oracle = tuple(int(np.sum(x * y, dtype=np.int64)) for x, y in arms)
        assert gamma_pooled(data).product_sums == oracle

    @given(st.integers(1, 64), st.integers(0, 2**32 - 1))
    @hyp_settings(max_examples=60, deadline=None)
    def test_bound_holds_on_random_data(self, n, seed):
        data = random_counterfactual(RngSpec(seed), n)
        r = gamma_pooled(data)
        assert abs(r.value) <= 2.0
        assert all(abs(t) <= 1.0 for t in r.per_term)


class TestTermwiseBoundCheck:
    @pytest.mark.parametrize(
        "trial,expected",
        [
            ((1, 1, 1, -1), 2),   # a(b+c)=0, d(b-c)=2
            ((-1, 1, 1, 1), -2),  # a(b+c)=-2, d(b-c)=0
        ],
    )
    def test_hand_values(self, trial, expected):
        values = termwise_bound_check(one_trial(*trial))
        assert values.tolist() == [expected]
        assert values.dtype == np.int8
        assert not values.flags.writeable
        assert float(np.abs(values).max()) == 2.0

    def test_exhaustive_single_trial(self):
        for m in range(16):
            signs = [1 if (m >> i) & 1 else -1 for i in range(4)]
            values = termwise_bound_check(one_trial(*signs))
            assert set(np.abs(values).tolist()) == {2}
            assert int(values.sum()) / values.size == gamma_pooled(one_trial(*signs)).value

    def test_gamma_equals_pooled_exactly(self):
        data = random_counterfactual(RngSpec(21), 997)
        values = termwise_bound_check(data)
        assert int(values.sum()) / values.size == gamma_pooled(data).value

    def test_value_off_two_is_an_assertion_error(self):
        # Only a corrupted array can hold a 0; the trusted constructor lets one in.
        zero = OutcomeSequence._of(np.array([0], dtype=np.int8))
        data = CounterfactualDataset(zero, seq(1), seq(1), seq(1))
        with pytest.raises(AssertionError, match="outside"):
            termwise_bound_check(data)

    def test_empty_dataset_error(self):
        empty = CounterfactualDataset(seq(), seq(), seq(), seq())
        with pytest.raises(ValueError, match="empty dataset"):
            termwise_bound_check(empty)


class TestGammaSubruns:
    def test_adversarial_reaches_four(self):
        data = SubRunDataset(
            ab=pairs([1], [1]), ac=pairs([1], [1]), db=pairs([1], [1]), dc=pairs([1], [-1])
        )
        assert gamma_subruns(data).value == 4.0

    def test_adversarial_reaches_minus_four(self):
        data = SubRunDataset(
            ab=pairs([1], [-1]), ac=pairs([1], [-1]), db=pairs([1], [-1]), dc=pairs([1], [1])
        )
        assert gamma_subruns(data).value == -4.0

    def test_mixed_single_trials(self):
        data = SubRunDataset(
            ab=pairs([1], [1]), ac=pairs([1], [-1]), db=pairs([-1], [-1]), dc=pairs([1], [1])
        )
        assert gamma_subruns(data).value == 0.0

    def test_per_term_normalization_by_own_count(self):
        data = SubRunDataset(
            ab=pairs([1, 1], [1, 1]),          # <ab> = 1 over 2 trials
            ac=pairs([1, 1, -1], [1, -1, 1]),  # <ac> = -1/3 over 3 trials
            db=pairs([1], [1]),                # <db> = 1
            dc=pairs([1, -1, 1, -1], [1, 1, 1, 1]),  # <dc> = 0
        )
        r = gamma_subruns(data)
        assert r.per_term == (1.0, -1 / 3, 1.0, 0.0)
        assert r.n_used == (2, 3, 1, 4)
        assert r.value == pytest.approx(1 - 1 / 3 + 1 - 0)

    def test_exact_value_decides_the_bound(self):
        r = gamma_subruns(exact_two_dataset())
        assert r.n_used == (24, 20, 10, 24)
        assert r.value == 2.0  # the exact ratio, rounded once
        assert r.exact == 2

    @given(st.data())
    @hyp_settings(max_examples=200, deadline=None)
    def test_value_is_the_exact_ratio_rounded_once(self, data):
        counts = data.draw(st.lists(st.integers(1, 10**6), min_size=4, max_size=4), "counts")
        equal = data.draw(st.booleans(), "equal counts")
        if equal:
            counts = [counts[0]] * 4
        sums = [m - 2 * data.draw(st.integers(0, m), "disagree") for m in counts]
        r = GammaResult(tuple(counts), tuple(sums))
        assert r.value == float(r.exact)
        if equal:
            assert r.value == (sums[0] + sums[1] + sums[2] - sums[3]) / counts[0]

    def test_empty_list_error_names_pair(self):
        data = SubRunDataset(
            ab=pairs([1], [1]), ac=pairs([1], [1]), db=pairs([], []), dc=pairs([1], [1])
        )
        with pytest.raises(ValueError, match="empty sub-run list: db"):
            gamma_subruns(data)


class TestSplitRandom:
    def test_requires_four_trials(self):
        with pytest.raises(ValueError, match="at least 4"):
            split_random(random_counterfactual(RngSpec(1), 3), RngSpec(2))

    def test_partition_covers_every_trial_once(self):
        data = random_counterfactual(RngSpec(3), 1000)
        subruns = split_random(data, RngSpec(4))
        assignment = RngSpec(4).generator().integers(0, 4, size=1000)  # the split's own draw
        assert assignment.shape == (1000,)
        assert sum(subruns.counts) == 1000
        for code, count in enumerate(subruns.counts):
            assert count == int(np.count_nonzero(assignment == code))

    def test_preserves_within_trial_pairing_and_order(self):
        data = random_counterfactual(RngSpec(5), 500)
        subruns = split_random(data, RngSpec(6))
        assignment = RngSpec(6).generator().integers(0, 4, size=500)
        column_pairs = (
            (data.a_seq, data.b_seq),
            (data.a_seq, data.c_seq),
            (data.d_seq, data.b_seq),
            (data.d_seq, data.c_seq),
        )
        for code, (_, plist) in enumerate(subruns.items()):
            src = np.flatnonzero(assignment == code)  # ascending: order preserved
            x, y = column_pairs[code]
            assert plist.a.values.tolist() == x.values[src].tolist()
            assert plist.b.values.tolist() == y.values[src].tolist()

    def test_one_trial_per_list_occurs(self):
        # With n=4 the assignment is a permutation of the four codes in
        # about 9% of seeds; find one and check the example shape.
        data = random_counterfactual(RngSpec(7), 4)
        for s in range(200):
            subruns = split_random(data, RngSpec(s))
            assignment = RngSpec(s).generator().integers(0, 4, size=4)
            if sorted(assignment.tolist()) == [0, 1, 2, 3]:
                assert subruns.counts == (1, 1, 1, 1)
                return
        pytest.fail("no one-per-list assignment in 200 seeds")

    def test_counts_concentrate_binomially(self):
        n = 100_000
        bound = 5 * math.sqrt(n)
        data = random_counterfactual(RngSpec(8), n)
        for s in range(100):
            counts = split_random(data, RngSpec(s)).counts
            assert all(abs(c - n / 4) <= bound for c in counts)

    def test_deterministic(self):
        data = random_counterfactual(RngSpec(9), 100)
        x = split_random(data, RngSpec(10))
        y = split_random(data, RngSpec(10))
        assert x.counts == y.counts
        for (_, px), (_, py) in zip(x.items(), y.items()):
            assert px.a == py.a and px.b == py.b

    def test_settings_carried_over(self):
        data = lhv_generate(SIGN_MALUS, PHOTON_OPTIMAL_QUAD, 100, RngSpec(11))
        assert split_random(data, RngSpec(12)).settings is PHOTON_OPTIMAL_QUAD


class TestEstimatorAgreement:
    def test_split_tracks_pooled_on_lhv_data(self):
        for s in range(5):
            data = lhv_generate(SIGN_MALUS, PHOTON_OPTIMAL_QUAD, 100_000, RngSpec(100 + s))
            pooled = gamma_pooled(data).value
            split = gamma_subruns(split_random(data, RngSpec(200 + s))).value
            assert abs(split - pooled) <= 0.05


class TestTheoryGamma:
    def test_photon_optimum(self):
        assert theory_gamma(PHOTON_OPTIMAL_QUAD, CorrelationLaw.PHOTON_MALUS) == pytest.approx(
            ROOT8, abs=1e-12
        )

    def test_spin_optimum(self):
        value = theory_gamma(SPIN_OPTIMAL_QUAD, CorrelationLaw.SPIN_HALF)
        assert abs(value) == pytest.approx(ROOT8, abs=1e-12)

    def test_near_degenerate_arm_b(self):
        # b == c exactly is rejected by SettingsQuad; in the limit the
        # dc term cancels the ac term and gamma -> 2 E(a,b) in [-2, 2].
        quad = SettingsQuad.from_degrees(0.0, 45.0, 30.0, 30.0 + 1e-9)
        law = CorrelationLaw.PHOTON_MALUS
        expect = 2.0 * law.pair_correlation(quad.a, quad.b)
        assert theory_gamma(quad, law) == pytest.approx(expect, abs=1e-6)
        assert abs(theory_gamma(quad, law)) <= 2.0

    def test_magnitude_bounded_by_four(self):
        g = np.random.default_rng(13)
        for law in CorrelationLaw:
            for _ in range(300):
                a, d, b, c = g.uniform(0.0, 180.0, size=4)
                quad = SettingsQuad.from_degrees(a, d, b, c)
                assert abs(theory_gamma(quad, law)) <= 4.0
