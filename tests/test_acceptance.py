"""End-to-end acceptance checks, one per headline guarantee.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible
under ``pytest -s``) before asserting, so a run both reports the scoreboard
and enforces it.  Tolerances and trial counts are part of the contract;
do not tighten or relax them casually.
"""

import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np

from chshkit import (
    Angle,
    CorrelationLaw,
    CounterfactualDataset,
    OutcomeSequence,
    PHOTON_OPTIMAL_QUAD,
    ResortPolicy,
    RngSpec,
    STABLE,
    SIGN_MALUS,
    SettingsQuad,
    SubRunDataset,
    SubRunPairs,
    closure_probability,
    gamma_pooled,
    gamma_subruns,
    generate_subruns,
    lhv_generate,
    qm_generate,
    resort_cascade,
    split_random,
    termwise_bound_check,
    theory_gamma,
)
from helpers import all_sign_rows, feasible_dataset, random_counterfactual, shared_run_dataset

PHOTON = CorrelationLaw.PHOTON_MALUS


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_pooled_bound_exhaustive():
    t0 = time.perf_counter()
    violations = 0
    attained = []
    total = 0
    for n in (1, 2, 3):
        seqs = [OutcomeSequence(row) for row in all_sign_rows(n)]
        best = 0.0
        for a, d, b, c in itertools.product(seqs, repeat=4):
            data = CounterfactualDataset(a, d, b, c)
            value = gamma_pooled(data).value
            values = termwise_bound_check(data)
            if abs(value) > 2.0 or np.any(np.abs(values) != 2):
                violations += 1
            best = max(best, abs(value))
            total += 1
        attained.append(best == 2.0)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and all(attained) and elapsed < 1.0
    report(
        1,
        ok,
        f"pooled |gamma| <= 2 over all {total} counterfactual sign patterns "
        f"(n=1..3), bound attained at each n, per-trial values all +/-2 "
        f"({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_2_split_agrees_with_pooled():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        data = lhv_generate(SIGN_MALUS, PHOTON_OPTIMAL_QUAD, 100_000, RngSpec(seed))
        split = split_random(data, RngSpec(seed).derive(1))
        diff = abs(gamma_subruns(split).value - gamma_pooled(data).value)
        worst = max(worst, diff)
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.05 and elapsed < 5.0
    report(
        2,
        ok,
        f"sub-run estimate of a random split tracks the pooled estimate on "
        f"hidden-variable data: worst |diff| = {worst:.4f} <= 0.05 over 20 "
        f"seeds at n=100000 ({elapsed:.2f}s)",
    )
    assert ok


def test_criterion_3_subrun_estimator_escapes_the_bound():
    t0 = time.perf_counter()
    plus, minus = OutcomeSequence([1]), OutcomeSequence([-1])
    crafted = SubRunDataset(
        ab=SubRunPairs(plus, plus),
        ac=SubRunPairs(plus, plus),
        db=SubRunPairs(plus, plus),
        dc=SubRunPairs(plus, minus),
    )
    crafted_value = gamma_subruns(crafted).value

    quad = SettingsQuad.from_degrees(0.0, 45.0, 22.5, -22.5)
    theory = theory_gamma(quad, PHOTON)
    empirical = gamma_subruns(generate_subruns(quad, PHOTON, 1_000_000, RngSpec(303))).value
    elapsed = time.perf_counter() - t0
    ok = (
        crafted_value == 4.0
        and abs(theory - 2 * math.sqrt(2)) < 1e-12
        and abs(empirical - 2.8284) <= 0.02
        and abs(empirical - theory) <= 0.02
        and elapsed < 10.0
    )
    report(
        3,
        ok,
        f"crafted sub-runs reach gamma = {crafted_value} exactly; photon data "
        f"at the strong settings give {empirical:.4f} vs closed form "
        f"{theory:.4f} (n_per=10^6, {elapsed:.2f}s)",
    )
    assert ok


def test_criterion_4_qm_sampler_tracks_the_law():
    n = 1_000_000
    cell_tol = 4 / math.sqrt(n)
    worst_corr = 0.0
    worst_cell = 0.0
    for i, diff in enumerate(np.linspace(0.0, 90.0, 8)):
        alpha, beta = Angle.from_degrees(0.0), Angle.from_degrees(float(diff))
        e = math.cos(2.0 * math.radians(float(diff)))
        pairs = qm_generate(alpha, beta, PHOTON, n, RngSpec(400 + i))
        s = pairs.a.values.astype(np.int64)
        t = pairs.b.values.astype(np.int64)
        worst_corr = max(worst_corr, abs(int(np.sum(s * t)) / n - e))
        for s_val, t_val in itertools.product((1, -1), repeat=2):
            freq = int(np.count_nonzero((s == s_val) & (t == t_val))) / n
            worst_cell = max(worst_cell, abs(freq - (1 + s_val * t_val * e) / 4))
    ok = worst_corr <= 0.01 and worst_cell <= cell_tol
    report(
        4,
        ok,
        f"sampled correlation within {worst_corr:.4f} of cos 2(alpha-beta) "
        f"(tol 0.01) and joint cell frequencies within {worst_cell:.5f} of "
        f"the quarter law (tol {cell_tol:.3f}) over 8 angle pairs at n=10^6",
    )
    assert ok


def test_criterion_5_cascade_preserves_gamma():
    root = RngSpec(505)
    worst_random = 0.0
    random_failures = 0
    for i in range(1000):
        data = feasible_dataset(root.derive(i), 2 + i % 39)
        policy = STABLE if i % 2 == 0 else ResortPolicy.uniform_random(root.derive(100_000 + i))
        rep = resort_cascade(data, policy)
        if not rep.all_feasible:
            random_failures += 1
            continue
        worst_random = max(worst_random, abs(rep.gamma_resorted - rep.gamma_subruns))

    # Exhaustive sweep at n_per = 2: all 16 pair-lists per term, 16^4
    # datasets; invariance must hold on every count-feasible cascade.
    columns = [np.array(v, dtype=np.int8) for v in itertools.product((1, -1), repeat=2)]
    lists = [
        SubRunPairs(OutcomeSequence(x), OutcomeSequence(y))
        for x in columns
        for y in columns
    ]
    feasible_count = 0
    exhaustive_violations = 0
    worst_small = 0.0
    for ab, ac, db, dc in itertools.product(lists, repeat=4):
        rep = resort_cascade(SubRunDataset(ab, ac, db, dc))
        if rep.all_feasible:
            feasible_count += 1
            worst_small = max(worst_small, abs(rep.gamma_resorted - rep.gamma_subruns))
        elif rep.gamma_resorted is not None:
            exhaustive_violations += 1

    ok = (
        random_failures == 0
        and exhaustive_violations == 0
        and feasible_count > 0
        and worst_random <= 1e-12
        and worst_small <= 1e-12
    )
    report(
        5,
        ok,
        f"gamma_resorted == gamma_subruns within 1e-12 on 1000 random feasible "
        f"datasets (worst {worst_random:.1e}) and on all {feasible_count} "
        f"feasible cascades among the 65536 exhaustive n_per=2 datasets "
        f"(worst {worst_small:.1e})",
    )
    assert ok


def test_criterion_6_closure_is_rare():
    trials = 100_000
    worst_z = 0.0
    for j, (n, k) in enumerate([(4, 2), (6, 3), (10, 5)]):
        exact = closure_probability(n, k)
        estimate = closure_probability(n, k, "monte-carlo", trials=trials, rng=RngSpec(600 + j))
        se = math.sqrt(exact * (1 - exact) / trials)
        worst_z = max(worst_z, abs(estimate - exact) / se)

    # Independent sub-runs: after the cascade the dragged copy of b keeps
    # no memory of b1.  The quad below zeroes the product of the four
    # channel correlations linking b1 to the dragged copy (two of its
    # pairs are orthogonal), so the Hamming distance concentrates at n/2,
    # the regime the uniform-arrangement coincidence model describes.
    quad = SettingsQuad.from_degrees(0.0, 67.5, 45.0, 22.5)
    closures = 0
    in_window = 0
    for seed in range(1000):
        data = generate_subruns(quad, PHOTON, 1000, RngSpec(seed))
        rep = resort_cascade(data, ResortPolicy.uniform_random(RngSpec(61_000 + seed)))
        closures += int(rep.closure)
        in_window += int(400 <= rep.hamming_b <= 600)
    ok = worst_z <= 3.0 and closures == 0 and in_window >= 990
    report(
        6,
        ok,
        f"monte-carlo closure rate within {worst_z:.2f} standard errors of "
        f"1/C(n,k) at 10^5 trials; independent sub-runs closed "
        f"{closures}/1000 seeds with hamming_b in [400,600] in "
        f"{in_window}/1000 (n_per=1000)",
    )
    assert ok


def test_criterion_7_closure_restores_the_bound():
    closures = 0
    violations = 0
    total = 0
    for n in range(1, 7):
        for i in range(50):
            rng = RngSpec(700 + 50 * n + i)
            shuffle = rng.derive(9) if i % 2 else None
            data = shared_run_dataset(random_counterfactual(rng, n), rng=shuffle)
            rep = resort_cascade(data)
            total += 1
            if not rep.all_feasible:
                violations += 1
            elif rep.closure:
                closures += 1
                if abs(rep.gamma_resorted) > 2.0:
                    violations += 1
    ok = violations == 0 and closures > 0
    report(
        7,
        ok,
        f"{closures}/{total} shared-run cascades closed and every closed "
        f"gamma_resorted stayed within [-2, 2] exactly",
    )
    assert ok


THREAD_ENVS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _run_cli(args, threads: str, out_path=None):
    env = os.environ.copy()
    for var in THREAD_ENVS:
        env[var] = threads
    argv = [sys.executable, "-m", "chshkit", *args]
    if out_path is not None:
        argv += ["--out", str(out_path)]
    proc = subprocess.run(argv, capture_output=True, env=env)
    file_bytes = out_path.read_bytes() if out_path is not None else b""
    return proc.returncode, proc.stdout, file_bytes


def test_criterion_8_cli_outputs_are_byte_identical(tmp_path):
    lhv = tmp_path / "lhv.csv"
    qm = tmp_path / "qm.csv"
    _run_cli(["simulate", "--mode", "lhv", "--n", "2000", "--seed", "42"], "1", lhv)
    _run_cli(["simulate", "--mode", "qm", "--n-per", "2000", "--seed", "43"], "1", qm)

    commands = {
        "simulate-lhv": (["simulate", "--mode", "lhv", "--n", "2000", "--seed", "42"], True),
        "simulate-qm": (["simulate", "--mode", "qm", "--n-per", "2000", "--seed", "43"], True),
        "split": (["split", "--in", str(lhv), "--seed", "44"], True),
        "estimate": (["estimate", "--in", str(qm)], False),
        "resort": (["resort", "--in", str(qm), "--policy", "uniform-random", "--seed", "45"], False),
        "sweep": (["sweep", "--steps", "6", "--n-per", "500", "--seed", "46"], True),
        "audit": (["audit", "--in", str(qm)], False),
    }
    mismatched = []
    for name, (args, writes_file) in commands.items():
        # One run single-threaded, one with 8 threads allowed: identical
        # config and seed must give byte-identical output either way.
        runs = []
        for tag, threads in (("a", "1"), ("b", "8")):
            out = tmp_path / f"{name}-{tag}.out" if writes_file else None
            runs.append(_run_cli(args, threads, out))
        if runs[0] != runs[1] or runs[0][0] != 0:
            mismatched.append(name)
    ok = not mismatched
    report(
        8,
        ok,
        "all six subcommands byte-identical across repeats and thread counts"
        if ok
        else f"output mismatch in: {', '.join(mismatched)}",
    )
    assert ok
