"""chshkit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-files --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its ``src/`` directory.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (provenance,
sample counts, tail percentiles, spans) goes to
``.perfbench/results/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

from harness import (THREAD_ENV, Ledger, Runner, Sample, fresh_import_seconds, metric_value,
                     pass_seconds, pin_to_one_cpu, probe_seconds, provenance, run_pass,
                     timing_summary)
from tracing import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, runner, seconds: float, trace: bool) -> dict:
    """Set up, warm up, then time passes; returns the run record."""
    ledger = Ledger()
    setup_samples = []
    for _ in range(1 if trace else SETUP_REPEATS):
        before = probe_seconds()
        import_wall, _ = fresh_import_seconds(ROOT)
        start = perf_counter()
        workload.setup()
        elapsed = import_wall + perf_counter() - start
        setup_samples.append(Sample.scaled(elapsed, 0, (before + probe_seconds()) / 2.0))
    ops = workload.ops()
    run_pass(ops, runner, ledger)  # warm-up: untimed, and the reference output digests

    samples: dict[str, list] = {}
    metrics: dict[str, float] = {}
    raw_metrics: dict[str, float] = {}
    passes = 0
    if not trace:
        start = perf_counter()
        while True:
            run_pass(ops, runner, ledger, samples)
            passes += 1
            if perf_counter() - start >= seconds:
                break
        metrics["pass_s"] = pass_seconds(samples)
        raw_metrics["pass_s"] = pass_seconds(samples, scaled=False)
        by_metric = {"setup_s": setup_samples}
        for op in ops:
            if op.label in samples:
                by_metric.setdefault(op.metric, []).extend(samples.pop(op.label))
        samples = by_metric
        for name, values in samples.items():
            metrics[name] = metric_value(values)
            raw_metrics[name] = metric_value(values, scaled=False)
        who = resource.RUSAGE_SELF if workload.library else resource.RUSAGE_CHILDREN
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        spans = None
    else:
        metrics, spans = _traced(workload, ops, runner, ledger)
        passes = 1
    metrics["failed_ratio"] = ledger.failed / max(ledger.attempted, 1)
    return {
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "passes": passes,
        "metrics": metrics,
        "unscaled_metrics": raw_metrics,
        "timings": {name: timing_summary([v.seconds for v in values])
                    for name, values in samples.items()},
        "samples": {name: [list(v) for v in values] for name, values in samples.items()},
        "output_sha256": ledger.digests,
        "spans": spans,
    }


def _traced(workload, ops, runner, ledger):
    """Per-layer metrics: the same pass untraced and traced, in one process."""
    metrics = {"cli.import_s": statistics.median(fresh_import_seconds(ROOT)[1] for _ in range(3))}
    in_process = runner if workload.library else Runner(runner.root, runner.workdir, in_process=True)
    plain: dict[str, list] = {}
    run_pass(ops, in_process, ledger, plain)
    overheads = [0.0]
    if not workload.library:
        timed: dict[str, list] = {}
        run_pass(ops, runner, ledger, timed)
        overheads = [t.scaled_seconds - p.scaled_seconds
                     for t, p in zip(_flat(timed), _flat(plain))]
    metrics["cli.process_overhead_s"] = statistics.median(overheads)
    tracer = Tracer()
    traced: dict[str, list] = {}
    with tracer.installed():
        run_pass(ops, in_process, ledger, traced, tracer)
    metrics.update(layer_metrics(tracer, sum(overheads)))
    metrics["trace_overhead_ratio"] = (sum(t.scaled_seconds for t in _flat(traced))
                                       / sum(p.scaled_seconds for p in _flat(plain)))
    return metrics, tracer.spans


def _flat(samples: dict[str, list]):
    return [value for values in samples.values() for value in values]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "chshkit" / "__init__.py").is_file():
        print(f"error: no chshkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    os.environ.update(THREAD_ENV)
    cpu = pin_to_one_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import chshkit

    if Path(chshkit.__file__).resolve().parent != ROOT / "src" / "chshkit":
        print(f"error: imported chshkit from {chshkit.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS  # imports numpy: only after THREAD_ENV is set

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](workdir, args.seed)
    try:
        record = measure(workload, Runner(ROOT, workdir), args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}
    if args.trace:
        # A wrapped name that a later change removed leaves its metrics
        # unmeasured; the result line still names every declared metric.
        record["absent_metrics"] = sorted(set(units) - set(record["metrics"]))
        for name in record["absent_metrics"]:
            print(f"warning: {name} not measured (its function is not wrapped); reported as 0",
                  file=sys.stderr)
            record["metrics"][name] = 0.0

    record["provenance"] = provenance(ROOT, args.seed, args.workload, workload.sizes())
    record["provenance"].update(seconds=args.seconds, trace=args.trace, pinned_cpu=cpu)
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")

    shown = {name: {"value": value, "unit": units[name]}
             for name, value in record["metrics"].items() if name in units}
    for name, value in record["metrics"].items():
        print(f"{name:40s} {value:.6g} {units.get(name, '')}", file=sys.stderr)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
