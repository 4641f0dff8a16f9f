"""Record one untraced and one traced run per workload in baseline.json.

    python3 perfbench/record_baseline.py [--seed 1] [--seconds 15]

The file keeps, per workload, why it was chosen, its end-to-end metrics,
its per-operation times, its per-layer metrics, the layer shares of the
traced pass, and the bypass counts the workload is meant to show.  Later changes quote their
before and after numbers against a file made this way.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Counts that must read 0 on a workload: the layer it is chosen to bypass.
BYPASS = {
    "cli-files": ("resort.closure_exact_calls",),
    "cascade-mc": ("sources.ingest_csv_calls", "sources.ingest_counterfactual_csv_calls",
                   "sources.write_subrun_csv_calls", "sources.write_counterfactual_csv_calls"),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    line = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(line.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = {}
    for entry in declared["workloads"]:
        name = entry["name"]
        e2e, record = run(name, args.seed, args.seconds, 0)
        layers, _ = run(name, args.seed, args.seconds, 1)
        values = {k: v["value"] for k, v in layers["metrics"].items()}
        baseline[name] = {
            "why": entry["why"],
            "correct": e2e["correct"] and layers["correct"],
            "end_to_end": {k: v["value"] for k, v in e2e["metrics"].items()},
            "per_operation": {k: v for k, v in record["metrics"].items() if k not in e2e["metrics"]},
            "timings": record["timings"],
            "layer_shares": {k: v for k, v in values.items() if k.endswith(".share")},
            "bypass": {k: values[k] for k in BYPASS.get(name, ())},
            "per_layer": values,
            "provenance": record["provenance"],
        }
        print(f"{name}: recorded", file=sys.stderr)
    (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
