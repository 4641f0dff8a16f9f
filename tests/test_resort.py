"""Re-sorting cascade, its permutations, closure odds."""

import collections
import itertools
import json
import math
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st

from chshkit import (
    CorrelationLaw,
    OutcomeSequence,
    RngSpec,
    STABLE,
    ResortPolicy,
    ResortReport,
    SettingsQuad,
    SubRunDataset,
    closure_probability,
    gamma_subruns,
    generate_subruns,
    resort_cascade,
    trim_to_shortest,
)
from chshkit import resort
from chshkit.rng import _DRAW_BLOCK
from chshkit.cli import _report_dict
from helpers import (
    feasible_dataset,
    pairs,
    random_counterfactual,
    reference_closure_mc,
    reference_resort_cascade,
    seq,
    shared_run_dataset,
    traced_peak,
)


class TestResortPolicy:
    def test_rejects_unknown_kind(self):
        for rng in ("sorted", 5, np.random.default_rng(1)):
            with pytest.raises(TypeError, match="must be an RngSpec or None"):
                ResortPolicy(rng)

    def test_rejects_a_kind_string(self):
        # The policy is its rng: a kind string would otherwise fail later, in derive.
        for kind in ("stable", "uniform-random"):
            with pytest.raises(TypeError, match="must be an RngSpec or None"):
                ResortPolicy(kind)

    def test_uniform_random_requires_rng(self):
        with pytest.raises(ValueError, match="requires an rng"):
            ResortPolicy.uniform_random(None)
        assert ResortPolicy.uniform_random(RngSpec(1)).rng == RngSpec(1)

    def test_stable_takes_no_rng(self):
        # A policy with an rng draws from it, so no stable policy can ignore one.
        assert ResortPolicy() == STABLE and STABLE.rng is None
        assert ResortPolicy(RngSpec(1)) == ResortPolicy.uniform_random(RngSpec(1)) != STABLE


def cascade_steps(data: SubRunDataset, policy: ResortPolicy = STABLE):
    """The cascade's steps as ``resort_cascade`` runs them, in cascade order.

    Each step is (aligned side, dragged side, permutation, moved side).
    The permutation is ``np.arange(n)`` dragged through the step's class
    matching, so entry i says which source trial lands at slot i; both
    drags of a step draw from generators derived alike, so they share
    their shuffles.
    """
    (a1, _), ac, db, dc = [(p.a.values, p.b.values) for p in data.lists]
    target, steps = a1, []
    for index, (aligned, drag) in enumerate((ac, dc[::-1], db)):
        def g():
            return None if policy.rng is None else policy.rng.derive(index).generator()
        perm, _ = resort._class_matching(target, aligned, np.arange(target.size), g())
        target, _ = resort._class_matching(target, aligned, drag, g())
        steps.append((aligned, drag, perm, target))
    return steps


def first_step(target: OutcomeSequence, source: OutcomeSequence, policy: ResortPolicy = STABLE):
    """The cascade's first step re-sorts the ac list's a-side onto the ab list's.

    Returns the step's permutation and whether its +1 counts matched.
    """
    n, m = len(target), len(source)
    data = SubRunDataset(ab=pairs(target.values, [1] * n), ac=pairs(source.values, [1] * m),
                         db=pairs([1] * n, [1] * n), dc=pairs([1] * n, [1] * n))
    report = resort_cascade(data, policy)
    return cascade_steps(data, policy)[0][2], report.feasible[0]


class TestAlignPermutation:
    def test_swap_example(self):
        perm, feasible = first_step(seq(-1, 1), seq(1, -1))
        assert feasible
        assert perm.tolist() == [1, 0]
        assert seq(1, -1).values[perm].tolist() == [-1, 1]

    def test_stable_three_element_example(self):
        # Stable matching sends source positions (0, 2, 1) into slots
        # (0, 1, 2): slot 0 takes the first +1, slot 1 the first -1,
        # slot 2 the second +1.
        perm, _ = first_step(seq(1, -1, 1), seq(1, 1, -1), STABLE)
        assert perm.tolist() == [0, 2, 1]
        assert seq(1, 1, -1).values[perm].tolist() == [1, -1, 1]

    def test_stable_matching_with_a_count_mismatch(self):
        # Each class matches in position order, and the bigger class's last
        # members (its surplus) take the other side's last leftovers:
        # target +1 slots (0, 1, 3) take the source's +1 at 1, then its
        # leftover -1s at 2 and 3; target -1 slot 2 takes its first -1.
        perm, feasible = first_step(seq(1, 1, -1, 1), seq(-1, 1, -1, -1))
        assert not feasible and perm.tolist() == [1, 2, 0, 3]
        # The source's surplus +1s (1, 3) fill the target's last -1 slots.
        perm, feasible = first_step(seq(-1, 1, -1, -1), seq(1, 1, -1, 1))
        assert not feasible and perm.tolist() == [2, 0, 1, 3]

    def test_count_mismatch_is_infeasible_not_error(self):
        _, feasible = first_step(seq(1, 1), seq(1, -1))
        assert feasible is False

    def test_length_mismatch_is_error(self):
        with pytest.raises(ValueError, match="equal sub-run lengths"):
            first_step(seq(1), seq(1, 1))

    def test_uniform_policy_achieves_alignment(self):
        target = seq(1, -1, 1, 1, -1, -1, 1)
        source = seq(-1, 1, 1, -1, 1, -1, 1)
        for s in range(10):
            perm, _ = first_step(target, source, ResortPolicy.uniform_random(RngSpec(s)))
            assert np.array_equal(source.values[perm], target.values)

    def test_uniform_policy_deterministic_per_seed(self):
        target, source = seq(1, 1, -1, -1), seq(-1, 1, -1, 1)
        policy = ResortPolicy.uniform_random(RngSpec(5))
        assert np.array_equal(first_step(target, source, policy)[0],
                              first_step(target, source, policy)[0])

    def test_uniform_policy_varies_across_seeds(self):
        target = source = seq(1, 1, 1, 1, -1, -1, -1, -1)
        perms = {
            tuple(first_step(target, source, ResortPolicy.uniform_random(RngSpec(s)))[0].tolist())
            for s in range(40)
        }
        assert len(perms) > 1

    def test_uniform_policy_draws_bijections_uniformly(self):
        # (+1, +1, +1, -1, -1) onto itself has 3! * 2! = 12 within-class
        # bijections, each to be drawn with odds 1/12.  The seeds are fixed,
        # so the chi-square statistic (11 degrees of freedom) is too; the
        # bound sits at odds of about 4e-5 for an unbiased draw.
        target = source = seq(1, 1, 1, -1, -1)
        seeds = 1_200
        counts = collections.Counter(
            tuple(first_step(target, source, ResortPolicy.uniform_random(RngSpec(s)))[0].tolist())
            for s in range(seeds)
        )
        assert len(counts) == 12
        assert all(sorted(perm[:3]) == [0, 1, 2] for perm in counts)
        expected = seeds / 12
        assert sum((c - expected) ** 2 / expected for c in counts.values()) < 40

    @given(st.lists(st.sampled_from((1, -1)), min_size=1, max_size=24), st.integers(0, 2**16))
    @hyp_settings(max_examples=80, deadline=None)
    def test_alignment_contract(self, values, s):
        target = seq(*values)
        source_values = RngSpec(s).generator().permutation(np.asarray(values, dtype=np.int8))
        perm, feasible = first_step(target, OutcomeSequence(source_values))
        assert feasible  # permuted copy always has matching counts
        assert np.array_equal(source_values[perm], target.values)


def identical_copies_dataset(n: int, rng_seed: int) -> SubRunDataset:
    """All four lists cut from one counterfactual run, identical order."""
    return shared_run_dataset(random_counterfactual(RngSpec(rng_seed), n))


class TestResortCascade:
    def test_identical_copies_close_with_identity_perms(self):
        data = identical_copies_dataset(16, rng_seed=1)
        report = resort_cascade(data)
        assert report.feasible == (True, True, True)
        for _, drag, perm, moved in cascade_steps(data):
            assert np.array_equal(perm, np.arange(16))
            assert np.array_equal(moved, drag)
        assert report.closure is True
        assert report.hamming_b == 0
        assert report.count_deficits == (0, 0, 0)
        assert report.gamma_resorted == pytest.approx(report.gamma_subruns, abs=1e-12)
        assert abs(report.gamma_resorted) <= 2.0

    def test_single_trial_count_infeasibility(self):
        # Step 1 aligns fine; the dragged c is (-1) while the dc list's
        # c-side is (+1), so step 2 (and then step 3) cannot align.
        data = SubRunDataset(
            ab=pairs([1], [1]), ac=pairs([1], [-1]), db=pairs([1], [1]), dc=pairs([-1], [1])
        )
        report = resort_cascade(data)
        assert report.feasible == (True, False, False)
        assert report.count_deficits == (0, -1, -1)
        assert report.gamma_resorted is None
        d = _report_dict(report)
        assert d["gamma_resorted"] is None
        assert d["feasible"] == [True, False, False]

    def test_unequal_lengths_error(self):
        data = SubRunDataset(
            ab=pairs([1], [1]), ac=pairs([1, 1], [1, 1]), db=pairs([1], [1]), dc=pairs([1], [1])
        )
        with pytest.raises(ValueError, match="cascade requires equal"):
            resort_cascade(data)

    def test_empty_lists_error(self):
        data = SubRunDataset(pairs([], []), pairs([], []), pairs([], []), pairs([], []))
        with pytest.raises(ValueError, match="empty sub-run list"):
            resort_cascade(data)

    def test_resorting_never_changes_term_sums(self):
        # Whatever the permutations do, each list's product sum is
        # permutation-invariant; feasibility does not matter.
        data = generate_subruns(
            SettingsQuad.from_degrees(0, 45, 22.5, -22.5),
            CorrelationLaw.PHOTON_MALUS,
            128,
            RngSpec(3),
        )
        for aligned, drag, perm, moved in cascade_steps(data):
            moved_pairs = pairs(aligned[perm], moved)  # pairs move as units
            assert moved_pairs.product_sum() == pairs(aligned, drag).product_sum()

    def test_value_invariance_on_feasible_data(self):
        for s in range(200):
            data = feasible_dataset(RngSpec(1000 + s), 40)
            report = resort_cascade(data)
            assert report.feasible == (True, True, True)
            assert report.gamma_resorted == pytest.approx(report.gamma_subruns, abs=1e-12)
            assert report.gamma_subruns == gamma_subruns(data).value

    def test_uniform_policy_deterministic_reports(self):
        data = generate_subruns(
            SettingsQuad.from_degrees(0, 45, 22.5, -22.5), CorrelationLaw.PHOTON_MALUS, 64, RngSpec(4)
        )
        policy = ResortPolicy.uniform_random(RngSpec(9))
        r1 = resort_cascade(data, policy)
        r2 = resort_cascade(data, policy)
        assert r1 == r2
        steps1, steps2 = cascade_steps(data, policy), cascade_steps(data, policy)
        assert all(np.array_equal(p[2], q[2]) for p, q in zip(steps1, steps2, strict=True))
        assert _report_dict(r1) == _report_dict(r2)

    @pytest.mark.parametrize("policy", [STABLE, ResortPolicy.uniform_random(RngSpec(3))],
                             ids=["stable", "uniform-random"])
    def test_steps_move_whole_pairs(self, policy):
        # Each step's (aligned, moved) pairs are the list's own pairs: an
        # int64 bijection moves them, so every (aligned, dragged) class
        # keeps its count.  The last moved side is the b-side the closure
        # verdict reads.
        quad = SettingsQuad.from_degrees(0, 45, 22.5, -22.5)
        independent = generate_subruns(quad, CorrelationLaw.PHOTON_MALUS, 50, RngSpec(2))
        for data in (independent, feasible_dataset(RngSpec(5), 50)):
            report = resort_cascade(data, policy)
            steps = cascade_steps(data, policy)
            assert len(steps) == 3
            for aligned, drag, perm, moved in steps:
                assert perm.dtype == np.int64 and perm.shape == (50,)
                assert np.array_equal(np.bincount(perm, minlength=50), np.ones(50))
                assert moved.dtype == drag.dtype and np.array_equal(moved, drag[perm])
                classes = [np.bincount((x > 0) * 2 + (y > 0), minlength=4)
                           for x, y in ((aligned[perm], moved), (aligned, drag))]
                assert np.array_equal(*classes)
            assert report.hamming_b == np.count_nonzero(data.ab.b.values != steps[-1][3])

    @pytest.mark.parametrize("policy", [STABLE, ResortPolicy.uniform_random(RngSpec(3))],
                             ids=["stable", "uniform-random"])
    def test_working_set_is_bounded(self, policy):
        # Independent lists of 10^6 trials, 2 MB each, where most steps
        # take the surplus rotation.  A step's two int64 class orders cost
        # 16 bytes a trial (a 24 MB peak); keeping three int64
        # permutations, 24 bytes a trial more, crosses the bound.
        quad = SettingsQuad.from_degrees(0, 45, 22.5, -22.5)
        data = generate_subruns(quad, CorrelationLaw.PHOTON_MALUS, 10**6, RngSpec(8))
        assert traced_peak(resort_cascade, data, policy) < 32_000_000

    def test_closure_implies_zero_hamming(self):
        for s in range(60):
            data = shared_run_dataset(random_counterfactual(RngSpec(s), 6), RngSpec(500 + s))
            report = resort_cascade(data)
            assert report.closure == (report.hamming_b == 0)

    def test_report_json_schema(self):
        report = resort_cascade(identical_copies_dataset(8, rng_seed=5))
        d = _report_dict(report)
        assert list(d) == [
            "feasible",
            "closure",
            "hamming_b",
            "gamma_subruns",
            "gamma_resorted",
            "count_deficits",
        ]
        assert isinstance(d["feasible"], list) and len(d["feasible"]) == 3
        assert isinstance(d["count_deficits"], list) and len(d["count_deficits"]) == 3
        assert isinstance(d["closure"], bool)
        assert isinstance(d["hamming_b"], int)
        assert all(type(v) is bool for v in d["feasible"])
        assert all(type(v) is int for v in d["count_deficits"])
        assert all(type(d[k]) is float for k in ("gamma_subruns", "gamma_resorted"))

    def test_threads_give_the_sequential_reports(self):
        # Each call re-keys a generator of its own: two threads running the
        # same uniform-random cascades, switching often, see no other's keys.
        cases = [(feasible_dataset(RngSpec(600 + i), 2 + i % 39),
                  ResortPolicy.uniform_random(RngSpec(700 + i))) for i in range(200)]
        expected = [resort_cascade(data, policy) for data, policy in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(2) as pool:
                runs = [pool.submit(lambda: [resort_cascade(d, p) for d, p in cases]) for _ in range(2)]
                reports = [run.result(timeout=120) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert reports == [expected, expected]


def hand_report(count_deficits, hamming_b) -> ResortReport:
    return ResortReport(count_deficits=count_deficits, hamming_b=hamming_b,
                        gamma_subruns=0.0, gamma_resorted=None)


class TestDerivedVerdicts:
    """Feasibility and closure are read off the deficits and the Hamming distance."""

    def test_report_stores_measurements_only(self):
        assert ResortReport.__slots__ == (
            "count_deficits", "hamming_b", "gamma_subruns", "gamma_resorted"
        )

    def test_a_deficit_and_a_distance_fail(self):
        report = hand_report((0, 1, 0), 3)
        assert report.feasible == (True, False, True)
        assert report.all_feasible is False
        assert report.closure is False

    def test_no_deficit_and_no_distance_hold(self):
        report = hand_report((0, 0, 0), 0)
        assert report.feasible == (True, True, True)
        assert all(type(v) is bool for v in report.feasible)
        assert report.all_feasible is True
        assert report.closure is True


@st.composite
def cascade_datasets(draw) -> SubRunDataset:
    """Equal-length sub-runs of 1 to 40 trials, half made feasible at every step."""
    n = draw(st.integers(1, 40))
    signs = st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    a1, b1, a2, c2, d3, b3, d4, c4 = (draw(signs) for _ in range(8))
    if draw(st.booleans()):
        # Each aligned side a rearrangement of the side it is aligned to.
        a2, c4, d3 = draw(st.permutations(a1)), draw(st.permutations(c2)), draw(st.permutations(d4))
    return SubRunDataset(ab=pairs(a1, b1), ac=pairs(a2, c2), db=pairs(d3, b3), dc=pairs(d4, c4))


policies = st.one_of(
    st.just(STABLE),
    st.integers(0, 2**64 - 1).map(lambda s: ResortPolicy.uniform_random(RngSpec(s))),
)


class TestCascadeMatchesReference:
    @given(cascade_datasets(), policies)
    @hyp_settings(max_examples=300, deadline=None)
    def test_every_report_field_matches(self, data, policy):
        got = resort_cascade(data, policy)
        want, want_perms = reference_resort_cascade(data, policy)
        for step, (p, q) in enumerate(zip(cascade_steps(data, policy), want_perms, strict=True)):
            assert np.array_equal(p[2], q), step
        for field in ResortReport.__slots__:
            assert getattr(got, field) == getattr(want, field), field
        assert got.feasible == want.feasible
        assert got.closure == want.closure
        assert json.dumps(_report_dict(got)) == json.dumps(_report_dict(want))


@st.composite
def matching_cases(draw):
    """A target and a source of equal length, their +1 counts independent."""
    n = draw(st.integers(1, 300))
    g = RngSpec(draw(st.integers(0, 2**32))).generator()
    target, source = (
        np.where(g.random(n) < draw(st.floats(0, 1)), 1, -1).astype(np.int8) for _ in range(2)
    )
    if draw(st.booleans()):
        source = g.permutation(target)  # a feasible step
    return target, source


class TestClassMatching:
    """The cascade trusts ``_class_matching`` to move its drag by a bijection."""

    @given(matching_cases(), st.one_of(st.none(), st.integers(0, 2**64 - 1)))
    @hyp_settings(max_examples=200, deadline=None)
    def test_bijection_deficit_and_alignment(self, case, seed):
        target, source = case

        def g():
            return None if seed is None else RngSpec(seed).generator()
        perm, deficit = resort._class_matching(target, source, np.arange(target.size), g())
        assert perm.dtype == np.int64
        assert np.array_equal(np.bincount(perm, minlength=target.size), np.ones(target.size))
        assert deficit == np.count_nonzero(target == 1) - np.count_nonzero(source == 1)
        moved, again = resort._class_matching(target, source, source, g())
        assert again == deficit
        assert moved.dtype == np.int8 and np.array_equal(moved, source[perm])
        agree = np.count_nonzero(moved == target)
        assert agree == target.size - abs(deficit)
        if deficit == 0:
            assert np.array_equal(moved, target)
            if seed is None:  # stable: each class keeps its position order
                assert all(np.all(np.diff(perm[target == v]) > 0) for v in (1, -1))


class TestGammaResorted:
    def test_adversarial_four_when_feasible(self):
        # A gamma = 4 dataset built to be count-feasible at every step:
        # re-sorting cannot change the value, so the cascade cannot
        # close (contrapositive of the closure bound).
        data = SubRunDataset(
            ab=pairs([1], [1]), ac=pairs([1], [1]), db=pairs([-1], [-1]), dc=pairs([-1], [1])
        )
        assert gamma_subruns(data).value == 4.0
        report = resort_cascade(data)
        assert report.feasible == (True, True, True)
        assert report.gamma_resorted == 4.0
        assert report.closure is False


class TestClosureBound:
    def test_closed_cascades_respect_bound_exactly(self):
        closures = 0
        for s in range(300):
            n = 1 + s % 6
            rng = RngSpec(40_000 + s) if s % 3 else None
            data = shared_run_dataset(random_counterfactual(RngSpec(s), n), rng)
            report = resort_cascade(data)
            assert report.feasible == (True, True, True)
            if report.closure:
                closures += 1
                assert abs(report.gamma_resorted) <= 2.0
        assert closures > 0

    def test_independent_data_rarely_feasible_never_closes(self):
        quad = SettingsQuad.from_degrees(0, 45, 22.5, -22.5)
        for s in range(20):
            data = generate_subruns(quad, CorrelationLaw.PHOTON_MALUS, 400, RngSpec(70_000 + s))
            report = resort_cascade(data)
            assert report.closure is False


class TestHammingConcentration:
    def test_aligned_chain_correlation_at_strong_settings(self):
        # Aligning drags each list's partner column along, so b1 and
        # the dragged b3 stay correlated with coefficient
        # E(ab)*E(ac)*E(dc)*E(db); at the optimal quad that product is
        # (1/sqrt 2)^4 * (-1) = -1/4 and the expected disagreement
        # fraction is (1 + 1/4) / 2 = 5/8, not 1/2.
        quad = SettingsQuad.from_degrees(0, 45, 22.5, -22.5)
        fractions = []
        for s in range(25):
            data = generate_subruns(quad, CorrelationLaw.PHOTON_MALUS, 400, RngSpec(80_000 + s))
            report = resort_cascade(data)
            assert report.closure is False
            fractions.append(report.hamming_b / 400)
        center = sum(fractions) / len(fractions)
        assert 0.56 <= center <= 0.68
        assert all(0.50 <= f <= 0.75 for f in fractions)

    def test_chance_level_when_chain_product_vanishes(self):
        # With E(ab) = E(dc) = 0 the chain correlation is zero and the
        # disagreement fraction concentrates at 1/2.
        quad = SettingsQuad.from_degrees(0.0, 67.5, 45.0, 22.5)
        law = CorrelationLaw.PHOTON_MALUS
        assert law.pair_correlation(quad.a, quad.b) == pytest.approx(0.0, abs=1e-15)
        assert law.pair_correlation(quad.d, quad.c) == pytest.approx(0.0, abs=1e-15)
        fractions = []
        for s in range(25):
            data = generate_subruns(quad, law, 400, RngSpec(90_000 + s))
            report = resort_cascade(data)
            assert report.closure is False
            fractions.append(report.hamming_b / 400)
        center = sum(fractions) / len(fractions)
        assert 0.45 <= center <= 0.55
        assert all(0.37 <= f <= 0.63 for f in fractions)


class TestClosureProbability:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (4, 2, 1 / 6),
            (6, 3, 1 / 20),
            (2, 2, 1.0),
            (1, 0, 1.0),
            (10, 5, 1 / 252),
        ],
    )
    def test_exact_values(self, n, k, expected):
        assert closure_probability(n, k) == pytest.approx(expected, rel=1e-12)

    def test_exact_matches_enumeration(self):
        # Brute force: all ordered pairs of 4-element arrangements with
        # two +1s; count elementwise-identical pairs.
        arrangements = [
            tuple(1 if i in ones else -1 for i in range(4))
            for ones in itertools.combinations(range(4), 2)
        ]
        hits = sum(x == y for x in arrangements for y in arrangements)
        assert closure_probability(4, 2) == hits / len(arrangements) ** 2

    def test_huge_inputs_underflow_to_zero(self):
        assert closure_probability(2000, 1000) == 0.0

    @pytest.mark.parametrize("n", range(1060, 1101))
    def test_exact_where_underflow_begins(self, n):
        # 1/C(1080, 540) is the smallest subnormal; 1/C(1100, 550) is 0.0.
        assert [closure_probability(n, k) for k in range(n + 1)] == [
            1 / math.comb(n, k) for k in range(n + 1)
        ]

    def test_underflow_costs_no_big_binomial(self):
        start = time.perf_counter()
        assert closure_probability(10**6, 5 * 10**5) == 0.0
        assert closure_probability(10**6, 1) == 1e-6
        assert time.perf_counter() - start < 0.5

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="0 <= k <= n"):
            closure_probability(3, 4)
        with pytest.raises(ValueError, match="unknown mode"):
            closure_probability(4, 2, mode="guess")
        with pytest.raises(ValueError, match="trials"):
            closure_probability(4, 2, mode="monte-carlo", rng=RngSpec(1))
        with pytest.raises(ValueError, match="rng"):
            closure_probability(4, 2, mode="monte-carlo", trials=10)
        # Exact mode draws nothing, so a trial count or an rng would be ignored.
        for extra in ({"trials": -3}, {"trials": 10}, {"rng": RngSpec(1)}):
            with pytest.raises(ValueError, match="exact mode takes no trials or rng"):
                closure_probability(10, 5, "exact", **extra)

    @pytest.mark.parametrize("n,k", [(5.0, 2), (5, 2.0), (True, True), (2, False), (np.bool_(1), 0)])
    @pytest.mark.parametrize("mode", ["exact", "monte-carlo"])
    def test_n_and_k_must_be_integers(self, n, k, mode):
        with pytest.raises(ValueError, match="need integers 0 <= k <= n"):
            closure_probability(n, k, mode, trials=10, rng=RngSpec(1))

    def test_accepts_numpy_integer_n_and_k(self):
        assert closure_probability(np.int64(5), np.int32(2)) == closure_probability(5, 2)

    @pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
    def test_monte_carlo_tracks_exact(self, n, k):
        trials = 30_000
        exact = closure_probability(n, k)
        se = math.sqrt(exact * (1 - exact) / trials)
        estimate = closure_probability(n, k, mode="monte-carlo", trials=trials, rng=RngSpec(17))
        assert abs(estimate - exact) <= 4 * se

    def test_monte_carlo_large_case(self):
        n, k, trials = 20, 10, 1_000_000
        exact = closure_probability(n, k)  # 1 / 184756
        se = math.sqrt(exact * (1 - exact) / trials)
        estimate = closure_probability(n, k, mode="monte-carlo", trials=trials, rng=RngSpec(18))
        assert abs(estimate - exact) <= 3 * se

    def test_monte_carlo_deterministic(self):
        a = closure_probability(6, 3, mode="monte-carlo", trials=5000, rng=RngSpec(19))
        b = closure_probability(6, 3, mode="monte-carlo", trials=5000, rng=RngSpec(19))
        assert a == b

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_monte_carlo_trials_must_be_an_integer(self, trials):
        with pytest.raises(ValueError, match="integer trials"):
            closure_probability(4, 2, mode="monte-carlo", trials=trials, rng=RngSpec(1))

    def test_monte_carlo_accepts_numpy_integer_trials(self):
        estimate = closure_probability(4, 2, mode="monte-carlo", trials=np.int64(10), rng=RngSpec(1))
        assert estimate == closure_probability(4, 2, mode="monte-carlo", trials=10, rng=RngSpec(1))

    def test_monte_carlo_working_set_is_bounded(self):
        # Two chunks of 10^5 rows at n = 10: drawn whole, each side of a
        # chunk held 17 MB of doubles and argsort indices.
        tracemalloc.start()
        try:
            closure_probability(10, 5, mode="monte-carlo", trials=200_000, rng=RngSpec(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


@st.composite
def monte_carlo_cases(draw):
    """(n, k, trials): one or two whole chunks, then a partial chunk
    that ends part-way through one of its pieces."""
    n = draw(st.integers(0, 40))
    k = draw(st.integers(0, n))
    chunk = max(1, 1_000_000 // max(n, 1))
    rows = max(1, _DRAW_BLOCK // max(n, 1))
    whole = draw(st.integers(1, 2))
    pieces = draw(st.integers(0, chunk // rows - 1))
    return n, k, whole * chunk + pieces * rows + draw(st.integers(1, rows - 1))


class TestClosureMonteCarloMatchesReference:
    """The piecewise draws give the float the whole-chunk loop gave."""

    @hyp_settings(max_examples=25, deadline=None)
    @given(case=monte_carlo_cases(), seed=st.integers(0, 2**64 - 1))
    def test_small_n(self, case, seed):
        n, k, trials = case
        got = closure_probability(n, k, mode="monte-carlo", trials=trials, rng=RngSpec(seed))
        assert got == reference_closure_mc(n, k, trials, RngSpec(seed))

    @pytest.mark.parametrize(
        "n,k,trials",
        [
            (0, 0, 10),
            (1, 0, 10),
            (5, 5, 10),
            (1000, 0, 2500),
            (1000, 1, 2500),
            (1000, 500, 2500),
            (1000, 1000, 2500),
            (40_000, 0, 3),
            (40_000, 1, 2),
            (40_000, 20_000, 3),
            (40_000, 40_000, 1),
        ],
    )
    def test_large_n(self, n, k, trials):
        got = closure_probability(n, k, mode="monte-carlo", trials=trials, rng=RngSpec(7))
        assert got == reference_closure_mc(n, k, trials, RngSpec(7))


def _doubles(w: np.ndarray) -> np.ndarray:
    """The doubles Generator.random builds from raw Philox words."""
    return (w >> 11) * 2.0**-53


def _words(x, low) -> np.ndarray:
    """Words whose doubles are ``x`` (multiples of 2**-53), low 11 bits ``low``."""
    return (np.asarray(x) * 2.0**53).astype(np.uint64) << 11 | np.asarray(low, dtype=np.uint64)


@st.composite
def arrangement_draws(draw):
    """(w, k): rows of words whose doubles are m / 2**bits in [0, 1) and
    whose low 11 bits are random.  On the grids of halves and eighths
    equal doubles in a row are common; on the finest grid, rare."""
    rows, n = draw(st.integers(1, 6)), draw(st.integers(1, 64))
    bits = draw(st.sampled_from([1, 3, 53]))
    m = draw(st.lists(st.integers(0, 2**bits - 1), min_size=rows * n, max_size=rows * n))
    low = draw(st.lists(st.integers(0, 0x7FF), min_size=rows * n, max_size=rows * n))
    x = np.array(m, dtype=np.float64).reshape(rows, n) / 2.0**bits
    return _words(x, np.reshape(low, (rows, n))), draw(st.integers(0, n))


class TestArrangementKernel:
    """The tagged-word row sort reads the arrangement a stable argsort of
    the words' doubles gives."""

    @hyp_settings(max_examples=300, deadline=None)
    @given(case=arrangement_draws())
    # Slots 0 and 1 tie, and a stable argsort ranks slot 0, below k, first,
    # though its low bits are the larger.
    @example(case=(_words([[0.5, 0.5, 0.25], [0.75, 0.125, 0.375]], [[0x7FF, 0, 5], [1, 2, 3]]), 1))
    # Slots 2 and 3 tie across k; numpy's default argsort may put either first.
    @example(case=(_words([[0.5, 0.5, 0.0, 0.0]], [[0, 0, 0x7FF, 0x400]]), 3))
    def test_same_as_argsort(self, case):
        w, k = case
        expected = _doubles(w).argsort(axis=1, kind="stable") < k
        got = resort._arrangements(w.copy(), k)
        assert got.dtype == bool and np.array_equal(got, expected)

    @pytest.mark.parametrize("n", [1, 2, 11, 64])
    def test_equal_doubles_from_words_differing_in_low_bits(self, n):
        # One double throughout, low bits falling along the row: sorting the
        # raw words would reverse the row, a stable argsort keeps it.
        w = _words(np.full((1, n), 0.375), [np.arange(n)[::-1] * (0x7FF // max(n - 1, 1))])
        assert len(set(_doubles(w).ravel().tolist())) == 1 and len(set(w.ravel().tolist())) == n
        for k in range(n + 1):
            assert resort._arrangements(w.copy(), k).tolist() == [(np.arange(n) < k).tolist()]


class TestTrimToShortest:
    def test_truncates_to_min_count(self):
        data = SubRunDataset(
            ab=pairs([1, 1, -1], [1, -1, 1]),
            ac=pairs([1, -1], [1, 1]),
            db=pairs([1, 1, 1, -1], [1, 1, -1, -1]),
            dc=pairs([-1, 1], [1, 1]),
        )
        cut = trim_to_shortest(data)
        assert cut.counts == (2, 2, 2, 2)
        assert cut.ab.a.values.tolist() == [1, 1]  # prefix kept
        assert cut.db.b.values.tolist() == [1, 1]

    def test_noop_on_equal_lengths(self):
        data = identical_copies_dataset(5, rng_seed=2)
        cut = trim_to_shortest(data)
        assert cut.counts == data.counts
        for p, q in zip(data.lists, cut.lists):
            assert np.array_equal(p.a.values, q.a.values) and np.array_equal(p.b.values, q.b.values)
