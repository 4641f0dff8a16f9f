"""Tests of the benchmark harness itself, at toy sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from harness import (REFERENCE_PROBE_S, CheckFailed, Ledger, Op, Runner, Sample, metric_value,
                     pass_seconds, timing_summary)
from workloads import AuditShared, CascadeMc, CliFiles

DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"] for m in DECLARED["end_to_end"]}
PER_LAYER = {m["name"] for m in DECLARED["per_layer"]}

#: Per-operation times each workload keeps in its record, besides the declared metrics.
PER_OPERATION = {
    "cli-files": {"simulate_qm_s", "simulate_lhv_s", "split_s", "estimate_s", "estimate_cf_s",
                  "sweep_s", "resort_s", "audit_s"},
    "audit-shared": {"audit_s", "resort_s"},
    "cascade-mc": {"cascades_per_s", "rarity_seeds_per_s", "closure_mc_trials_per_s"},
}


class ToyCliFiles(CliFiles):
    N_PER = N_LHV = SWEEP_N_PER = 2000
    SWEEP_STEPS = 2


class ToyAuditShared(AuditShared):
    N = 2000


class ToyCascadeMc(CascadeMc):
    CASCADES, RARITY_SEEDS, MC_TRIALS = 39, 4, 20_000


TOYS = {"cli-files": ToyCliFiles, "audit-shared": ToyAuditShared, "cascade-mc": ToyCascadeMc}


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_children():
    spans = [span("cli.main", 0.0, 10.0), span("sources.ingest_csv", 1.0, 4.0, 0),
             span("core.OutcomeSequence", 2.0, 3.0, 1), span("resort.resort_cascade", 5.0, 6.5, 0)]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_self_time_counts_overlap_once_and_clips_to_parent():
    spans = [span("a.x", 0.0, 4.0), span("b.y", 1.0, 3.0, 0), span("b.z", 2.0, 5.0, 0)]
    assert tracing.self_times(spans) == pytest.approx([1.0, 2.0, 3.0])


def test_layer_shares_sum_to_one_and_unwrapped_names_go_absent():
    tracer = tracing.Tracer()
    tracer.wrapped = {"cli.main", "sources.ingest_csv", "core.OutcomeSequence"}
    tracer.spans = [span("cli.main", 0.0, 10.0), span("sources.ingest_csv", 1.0, 4.0, 0),
                    span("core.OutcomeSequence", 2.0, 3.0, 1)]
    tracer.counts["sources.ingest_csv_rows"] = 300
    out = tracing.layer_metrics(tracer, startup_s=2.0)
    assert out["cli.share"] == pytest.approx(9.0 / 12.0)
    assert out["sources.share"] == pytest.approx(2.0 / 12.0)
    assert sum(out[f"{layer}.share"] for layer in tracing.LAYERS) == pytest.approx(1.0)
    assert out["sources.ingest_csv_s"] == pytest.approx(2.0)
    assert out["sources.ingest_rows_per_s"] == pytest.approx(100.0)
    assert "resort.cascade_calls" not in out and "rng.generator_s" not in out


def test_tracer_records_nesting_and_restores_every_name():
    import chshkit.cli
    import chshkit.core
    import chshkit.resort
    from chshkit import RngSpec, SubRunDataset, SubRunPairs, OutcomeSequence

    before = chshkit.resort.resort_cascade, chshkit.core.OutcomeSequence.__init__
    p = SubRunPairs(OutcomeSequence([1, -1]), OutcomeSequence([1, 1]))
    data = SubRunDataset(p, p, p, p)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert chshkit.resort.resort_cascade is not before[0]
        chshkit.resort.resort_cascade(data)
        chshkit.resort.closure_probability(4, 2, "monte-carlo", trials=10, rng=RngSpec(1))
    assert (chshkit.resort.resort_cascade, chshkit.core.OutcomeSequence.__init__) == before
    names = [s[0] for s in tracer.spans]
    root = names.index("resort.resort_cascade")
    assert tracer.spans[names.index("estimators.gamma_subruns")][3] == root
    assert "resort.closure_mc" in names and "resort.closure_exact" not in names
    out = tracing.layer_metrics(tracer)
    assert out["resort.cascade_calls"] == 1 and out["resort.closure_exact_calls"] == 0
    assert out["resort.steps_feasible_ratio"] == 1.0 and out["resort.closure_ratio"] == 1.0


def test_timing_summary_names_the_highest_percentile_with_ten_beyond():
    assert timing_summary([1.0] * 9)["tail_percentile"] is None
    summary = timing_summary([float(i) for i in range(100)])
    assert (summary["samples"], summary["tail_percentile"], summary["tail_s"]) == (100, 90.0, 90.0)


def test_samples_are_scaled_to_the_reference_probe_time():
    slow = 2 * REFERENCE_PROBE_S  # the host ran at half the reference speed
    durations = [Sample.scaled(4.0, 0, slow), Sample.scaled(1.0, 0, REFERENCE_PROBE_S)]
    assert metric_value(durations) == pytest.approx((2.0 + 1.0) / 2)
    assert metric_value(durations, scaled=False) == pytest.approx(2.5)
    assert metric_value([Sample.scaled(2.0, 100, slow)]) == pytest.approx(100.0)


def test_pass_time_takes_each_operation_once_at_its_median():
    samples = {"a": [Sample(1.0, 0, 1.0), Sample(3.0, 0, 1.0), Sample(2.0, 0, 1.0)],
               "b": [Sample(4.0, 0, 0.5), Sample(6.0, 0, 0.5)]}
    assert pass_seconds(samples) == pytest.approx(2.0 + 2.5)
    assert pass_seconds(samples, scaled=False) == pytest.approx(2.0 + 5.0)


def test_ledger_counts_wrong_and_changing_output_as_failures():
    outputs = iter([b"a", b"b", b"bad"])

    def check(output):
        if output == b"bad":
            raise CheckFailed("bad output")

    op = Op("toy", "toy_s", lambda runner: (0.1, next(outputs)), check)
    ledger = Ledger()
    assert ledger.record(op, None) == 0.1
    assert ledger.record(op, None) is None  # differs from the first output
    assert ledger.record(op, None) is None
    assert (ledger.attempted, ledger.failed) == (3, 2)


def _measure(name, seed, trace, tmp_path):
    workdir = tmp_path / f"{name}-{seed}-{trace}"
    workdir.mkdir()
    workload = TOYS[name](workdir, seed)
    return workload, run.measure(workload, Runner(run.ROOT, workdir), 0.0, trace)


@pytest.mark.parametrize("name", sorted(TOYS))
def test_every_named_metric_is_emitted_for_its_workload(name, tmp_path):
    _, record = _measure(name, 3, False, tmp_path)
    assert record["failed"] == 0 and record["attempted"] > 0
    assert E2E | PER_OPERATION[name] <= set(record["metrics"])
    assert all(record["metrics"][metric] > 0 for metric in E2E | PER_OPERATION[name])

    _, traced = _measure(name, 3, True, tmp_path)
    assert traced["failed"] == 0
    assert PER_LAYER <= set(traced["metrics"])
    if name == "cli-files":
        assert traced["metrics"]["resort.closure_exact_calls"] == 0
    if name == "audit-shared":
        assert traced["metrics"]["resort.closure_exact_calls"] == 2
    if name == "cascade-mc":
        assert all(traced["metrics"][f"sources.{fn}_calls"] == 0 for fn in
                   ("ingest_csv", "ingest_counterfactual_csv", "write_subrun_csv",
                    "write_counterfactual_csv"))


def test_held_out_seed_changes_inputs_not_metrics_or_checks(tmp_path):
    _, one = _measure("cascade-mc", 1, False, tmp_path)
    _, two = _measure("cascade-mc", 2, False, tmp_path)
    assert one["failed"] == two["failed"] == 0
    assert set(one["metrics"]) == set(two["metrics"])
    assert set(one["output_sha256"]) == set(two["output_sha256"])
    for label, digest in one["output_sha256"].items():
        assert two["output_sha256"][label] != digest, label


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli-files",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
