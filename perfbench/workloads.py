"""The three workloads: their sizes, inputs, operations and output checks.

* ``cli-files``: independent-origin data through every subcommand, as
  subprocesses.  CSV write and ingest do most of the work; exact closure
  odds are bypassed because independent lists' b-counts differ.
* ``audit-shared``: ``audit`` (both policies) and ``resort`` on a sub-run
  file whose four lists come from one LHV run in the same trial order, so
  every cascade step is feasible and ``audit`` computes exact 1/C(n, k).
* ``cascade-mc``: library Monte Carlo in one process -- tiny cascades,
  the closure-rarity study and Monte-Carlo closure odds -- with no files,
  so the CSV layer is bypassed completely.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from pathlib import Path
from time import perf_counter

import numpy as np

from harness import CheckFailed, Op

RESORTABLE = "re-sortable; Bell bound applies"
NOT_RESORTABLE = "not re-sortable; Bell bound inapplicable"
SUBRUN_HEADER = b"pair,outcome_a,outcome_b\n"
COUNTERFACTUAL_HEADER = b"j,a,d,b,c\n"


def _mod(name: str):
    # Looked up at call time, so spans installed by the tracer are seen.
    return importlib.import_module(f"chshkit.{name}")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _cli_op(label: str, metric: str, argv: list[str], check, out: Path | None = None) -> Op:
    def run(runner):
        seconds, stdout = runner.cli(argv)
        return seconds, stdout + (out.read_bytes() if out is not None else b"")

    return Op(label, metric, run, check)


def _csv_check(header: bytes, rows: int):
    def check(output: bytes) -> None:
        _require(output.startswith(header), f"header is not {header!r}")
        _require(output.count(b"\n") == rows + 1, f"expected {rows} data rows")

    return check


class CliFiles:
    name = "cli-files"
    library = False
    N_PER = 100_000
    N_LHV = 100_000
    SWEEP_STEPS = 16
    SWEEP_N_PER = 100_000

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed

    def sizes(self) -> dict:
        return {"qm_n_per": self.N_PER, "lhv_n": self.N_LHV,
                "sweep_steps": self.SWEEP_STEPS, "sweep_n_per": self.SWEEP_N_PER}

    def setup(self) -> None:
        """Command seeds; the qm seed is redrawn until the b-counts differ.

        Independent lists' +1-counts on b coincide for about 1 seed in 560.
        Such a file would make ``audit`` compute exact closure odds, the
        path this workload is defined to bypass, so set-up generates the
        sub-runs exactly as ``simulate --mode qm`` will and skips that seed.
        """
        sources, rng = _mod("sources"), _mod("rng")
        draw = random.Random(self.seed)
        while True:
            s_qm = draw.randrange(2**31)
            data = sources.generate_subruns(sources.PHOTON_OPTIMAL_QUAD,
                                            sources.CorrelationLaw.PHOTON_MALUS, self.N_PER,
                                            rng.RngSpec(s_qm))
            if data.ab.b.plus_count() != data.db.b.plus_count():
                break
        self.seeds = [s_qm] + [draw.randrange(2**31) for _ in range(3)]

    def ops(self) -> list[Op]:
        qm, lhv, split, sweep = (str(self.workdir / f) for f in
                                 ("qm.csv", "lhv.csv", "split.csv", "sweep.csv"))
        s_qm, s_lhv, s_split, s_policy = self.seeds
        n, n_lhv = self.N_PER, self.N_LHV
        sigma = math.sqrt(2.0 / n)  # four terms, each of variance (1 - 1/2) / n

        def qm_gamma(value: float) -> None:
            _require(abs(value - 2.0 * math.sqrt(2.0)) <= 6.0 * sigma,
                     f"qm gamma {value} is more than 6 sigma from 2*sqrt(2)")

        def estimate_qm(output: bytes) -> None:
            report = json.loads(output)
            _require(report["kind"] == "subruns", "estimate read the wrong CSV kind")
            _require(report["n_used"] == [n] * 4, f"n_used {report['n_used']}")
            qm_gamma(report["gamma"])

        def estimate_cf(output: bytes) -> None:
            report = json.loads(output)
            _require(report["kind"] == "counterfactual", "estimate read the wrong CSV kind")
            _require(report["n_used"] == [n_lhv] * 4, f"n_used {report['n_used']}")
            _require(report["per_trial_max_abs"] == 2, "per-trial max |value| is not 2")
            _require(abs(report["gamma"]) <= 2 and report["bound_satisfied"],
                     f"pooled gamma {report['gamma']} outside [-2, 2]")

        def resort(output: bytes) -> None:
            report = json.loads(output)
            _require(not report["closure"], "independent sub-runs closed")
            qm_gamma(report["gamma_subruns"])

        def audit(output: bytes) -> None:
            report = json.loads(output)
            _require(report["closure_context"]["counts_match"] is False,
                     "independent lists' b-counts match; exact odds would run")
            _require(report["closure_context"]["n"] == n, "audit n")
            _require(report["verdict"] == NOT_RESORTABLE, f"verdict {report['verdict']!r}")
            estimate_qm(json.dumps(report["estimate"]).encode())

        def sweep_rows(output: bytes) -> None:
            lines = output.decode("utf-8").splitlines()
            _require(lines[0] == "offset_deg,gamma_theory,gamma_empirical", "sweep header")
            _require(len(lines) == self.SWEEP_STEPS + 2, f"sweep has {len(lines) - 1} rows")
            tolerance = 6.0 * math.sqrt(4.0 / self.SWEEP_N_PER)
            for line in lines[1:]:
                _, theory, empirical = (float(x) for x in line.split(","))
                _require(abs(theory - empirical) <= tolerance, f"sweep row {line} off theory")

        return [
            _cli_op("simulate-qm", "simulate_qm_s",
                    ["simulate", "--mode", "qm", "--n-per", str(n), "--seed", str(s_qm), "--out", qm],
                    _csv_check(SUBRUN_HEADER, 4 * n), Path(qm)),
            _cli_op("simulate-lhv", "simulate_lhv_s",
                    ["simulate", "--mode", "lhv", "--n", str(n_lhv), "--seed", str(s_lhv),
                     "--out", lhv],
                    _csv_check(COUNTERFACTUAL_HEADER, n_lhv), Path(lhv)),
            _cli_op("split", "split_s", ["split", "--in", lhv, "--seed", str(s_split), "--out", split],
                    _csv_check(SUBRUN_HEADER, n_lhv), Path(split)),
            _cli_op("estimate-subruns", "estimate_s", ["estimate", "--in", qm], estimate_qm),
            _cli_op("estimate-counterfactual", "estimate_cf_s", ["estimate", "--in", lhv], estimate_cf),
            _cli_op("resort-uniform", "resort_s",
                    ["resort", "--in", qm, "--policy", "uniform-random", "--seed", str(s_policy)],
                    resort),
            _cli_op("audit", "audit_s", ["audit", "--in", qm], audit),
            _cli_op("sweep", "sweep_s",
                    ["sweep", "--steps", str(self.SWEEP_STEPS), "--n-per", str(self.SWEEP_N_PER),
                     "--seed", str(s_qm), "--out", sweep],
                    sweep_rows, Path(sweep)),
        ]


class AuditShared:
    name = "audit-shared"
    library = False
    N = 200_000

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.path = workdir / "shared.csv"

    def sizes(self) -> dict:
        return {"shared_n": self.N, "rows": 4 * self.N}

    def setup(self) -> None:
        """One LHV run; all four sub-run lists keep its trial order."""
        core, sources, rng = _mod("core"), _mod("sources"), _mod("rng")
        run = sources.lhv_generate(sources.SIGN_MALUS, sources.PHOTON_OPTIMAL_QUAD, self.N,
                                   rng.RngSpec(self.seed))
        pairs = core.SubRunPairs
        dataset = core.SubRunDataset(
            pairs(run.a_seq, run.b_seq), pairs(run.a_seq, run.c_seq),
            pairs(run.d_seq, run.b_seq), pairs(run.d_seq, run.c_seq), settings=run.settings,
        )
        sources.write_subrun_csv(dataset, self.path)
        self.gamma = round(_mod("estimators").gamma_subruns(dataset).value, 6)
        self.policy_seed = random.Random(self.seed).randrange(2**31)

    def ops(self) -> list[Op]:
        path, n = str(self.path), self.N

        def cascade(report: dict, closes: bool) -> None:
            _require(report["feasible"] == [True, True, True], "a shared-origin step was infeasible")
            _require(report["gamma_subruns"] == self.gamma, "gamma differs from the source run")
            _require(report["gamma_resorted"] == report["gamma_subruns"],
                     "re-sorting changed gamma")
            _require(report["closure"] is closes, f"closure is {report['closure']}")

        def audit(closes: bool):
            def check(output: bytes) -> None:
                report = json.loads(output)
                cascade(report["resort"], closes)
                context = report["closure_context"]
                _require(context["counts_match"] and context["n"] == n,
                         "exact closure odds were not computed")
                _require(report["estimate"]["n_used"] == [n] * 4, "n_used")
                _require(report["verdict"] == (RESORTABLE if closes else NOT_RESORTABLE),
                         f"verdict {report['verdict']!r}")

            return check

        return [
            _cli_op("audit-stable", "audit_s", ["audit", "--in", path], audit(True)),
            _cli_op("audit-uniform", "audit_s",
                    ["audit", "--in", path, "--policy", "uniform-random",
                     "--seed", str(self.policy_seed)], audit(False)),
            _cli_op("resort-stable", "resort_s", ["resort", "--in", path],
                    lambda output: cascade(json.loads(output), True)),
        ]


class CascadeMc:
    name = "cascade-mc"
    library = True
    CASCADES = 1000          # n = 2 + i % 39, as in acceptance criterion 5
    RARITY_SEEDS = 200
    RARITY_N_PER = 1000
    MC_N, MC_K, MC_TRIALS = 10, 5, 200_000

    def __init__(self, workdir: Path, seed: int) -> None:
        self.seed = seed

    def sizes(self) -> dict:
        return {"cascades": self.CASCADES, "cascade_n": [2, 40], "rarity_seeds": self.RARITY_SEEDS,
                "rarity_n_per": self.RARITY_N_PER,
                "closure_mc": [self.MC_N, self.MC_K, self.MC_TRIALS]}

    def setup(self) -> None:
        """Count-feasible tiny datasets, alternating stable and uniform-random."""
        core, resort, rng = _mod("core"), _mod("resort"), _mod("rng")
        root = rng.RngSpec(self.seed)

        def pairs(x, y):
            return core.SubRunPairs(core.OutcomeSequence(x), core.OutcomeSequence(y))

        self.cascades = []
        for i in range(self.CASCADES):
            g, n = root.derive(i).generator(), 2 + i % 39

            def signs():
                return (g.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)

            a1, b1, c2, d4, b3 = signs(), signs(), signs(), signs(), signs()
            a2, c4, d3 = g.permutation(a1), g.permutation(c2), g.permutation(d4)
            data = core.SubRunDataset(pairs(a1, b1), pairs(a2, c2), pairs(d3, b3), pairs(d4, c4))
            policy = (resort.STABLE if i % 2 == 0
                      else resort.ResortPolicy.uniform_random(root.derive(100_000 + i)))
            self.cascades.append((data, policy))
        self.rarity = [(root.derive(200_000 + j), root.derive(300_000 + j))
                       for j in range(self.RARITY_SEEDS)]
        self.mc_rng = root.derive(400_000)

    def ops(self) -> list[Op]:
        def timed(fn):
            def run(runner):
                start = perf_counter()
                result = fn()
                seconds = perf_counter() - start
                return seconds, json.dumps(result).encode()

            return run

        def cascades():
            run = _mod("resort").resort_cascade
            out = []
            for data, policy in self.cascades:
                r = run(data, policy)
                out.append([r.feasible, r.closure, r.hamming_b, r.gamma_subruns, r.gamma_resorted])
            return out

        def check_cascades(output: bytes) -> None:
            for feasible, _, _, plain, resorted in json.loads(output):
                _require(all(feasible), "a count-feasible cascade reported an infeasible step")
                _require(abs(resorted - plain) <= 1e-12, "re-sorting changed gamma")

        def rarity():
            sources, resort = _mod("sources"), _mod("resort")
            quad = _mod("core").SettingsQuad.from_degrees(0.0, 67.5, 45.0, 22.5)
            out = []
            for data_rng, policy_rng in self.rarity:
                data = sources.generate_subruns(quad, sources.CorrelationLaw.PHOTON_MALUS,
                                                self.RARITY_N_PER, data_rng)
                r = resort.resort_cascade(data, resort.ResortPolicy.uniform_random(policy_rng))
                out.append([r.closure, r.hamming_b])
            return out

        def check_rarity(output: bytes) -> None:
            closures = sum(closure for closure, _ in json.loads(output))
            _require(closures == 0, f"independent sub-runs closed {closures} times")

        def closure_mc():
            return _mod("resort").closure_probability(
                self.MC_N, self.MC_K, "monte-carlo", trials=self.MC_TRIALS, rng=self.mc_rng)

        def check_mc(output: bytes) -> None:
            exact = 1 / math.comb(self.MC_N, self.MC_K)
            sigma = math.sqrt(exact * (1 - exact) / self.MC_TRIALS)
            estimate = json.loads(output)
            _require(abs(estimate - exact) <= 4 * sigma,
                     f"monte-carlo {estimate} is more than 4 sigma from 1/C(n,k) = {exact}")

        return [
            Op("cascades", "cascades_per_s", timed(cascades), check_cascades, self.CASCADES),
            Op("rarity", "rarity_seeds_per_s", timed(rarity), check_rarity, self.RARITY_SEEDS),
            Op("closure-mc", "closure_mc_trials_per_s", timed(closure_mc), check_mc, self.MC_TRIALS),
        ]


WORKLOADS = {w.name: w for w in (CliFiles, AuditShared, CascadeMc)}
