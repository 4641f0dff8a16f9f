"""Command-line front end.

Subcommands::

    simulate   generate trial CSVs (lhv counterfactual or qm sub-run)
    split      counterfactual CSV -> randomly sampled sub-run CSV
    estimate   gamma report (JSON) from either CSV kind
    resort     run the re-sorting cascade, emit the report JSON
    sweep      angle-offset curve: theory vs empirical gamma (CSV)
    audit      one-shot estimate + cascade + closure-odds verdict (JSON)

Conventions: angles are degrees on the command line; every randomized
command takes an explicit --seed (there is no wall-clock seeding);
gamma values are printed with six decimals; findings (a violated bound,
a failed closure) are report content, never process errors.  Exit codes:
0 success, 1 data/runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections.abc import Iterator

import numpy as np

from .core import SettingsQuad
from .estimators import (
    gamma_pooled,
    gamma_subruns,
    split_random,
    termwise_bound_check,
    theory_gamma,
)
from .resort import ResortPolicy, closure_probability, resort_cascade, trim_to_shortest
from .rng import RngSpec
from .sources import (
    CorrelationLaw,
    PHOTON_OPTIMAL_QUAD,
    SIGN_MALUS,
    SPIN_OPTIMAL_QUAD,
    _output,
    _read_trials,
    generate_subruns,
    ingest_counterfactual_csv,
    ingest_csv,
    lhv_generate,
    write_counterfactual_csv,
    write_subrun_csv,
)

__all__ = ["main"]

RESORTABLE = "re-sortable; Bell bound applies"
NOT_RESORTABLE = "not re-sortable; Bell bound inapplicable"


def _number(convert, noun: str, valid, requirement: str):
    """An argparse type: ``convert(text)``, which ``valid`` must accept.

    ``requirement`` is the message for a value it rejects, formatted with
    the ``value`` and the ``text``.
    """

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(requirement.format(value=value, text=text))
        return value

    return parse


_positive_int = _number(int, "an integer", lambda v: v >= 1, "must be >= 1, got {value}")
_seed = _number(int, "an integer", lambda v: 0 <= v < 2**64, "must be in [0, 2**64), got {value}")
_finite_float = _number(float, "a number", math.isfinite, "must be finite, got {text!r}")


def _angles(text: str) -> SettingsQuad:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("expected four comma-separated degrees: a,d,b,c")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid angle in {text!r}") from None
    try:
        return SettingsQuad.from_degrees(*values)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _law(text: str) -> CorrelationLaw:
    try:
        return CorrelationLaw(text)
    except ValueError:
        choices = ", ".join(law.value for law in CorrelationLaw)
        raise argparse.ArgumentTypeError(f"unknown law {text!r} (choices: {choices})") from None


def _round6(x: float | None) -> float | None:
    return None if x is None else round(float(x), 6)


def _default_quad(law: CorrelationLaw) -> SettingsQuad:
    return PHOTON_OPTIMAL_QUAD if law is CorrelationLaw.PHOTON_MALUS else SPIN_OPTIMAL_QUAD


def cmd_simulate(args: argparse.Namespace) -> None:
    law = args.law or CorrelationLaw.PHOTON_MALUS
    settings = args.angles or _default_quad(law)
    rng = RngSpec(args.seed)
    if args.mode == "lhv":
        write_counterfactual_csv(lhv_generate(SIGN_MALUS, settings, args.n, rng), args.out_path)
    else:
        write_subrun_csv(generate_subruns(settings, law, args.n_per, rng), args.out_path)


def cmd_split(args: argparse.Namespace) -> None:
    dataset = ingest_counterfactual_csv(args.in_path)
    write_subrun_csv(split_random(dataset, RngSpec(args.seed)), args.out_path)


def _estimate_dict(kind: str, dataset) -> dict:
    counterfactual = kind == "counterfactual"
    result = (gamma_pooled if counterfactual else gamma_subruns)(dataset)
    numerator, denominator = result._ratio()  # |Gamma| <= 2, exactly: no Fraction needed
    report = {
        "kind": kind,
        "gamma": _round6(result.value),
        "per_term": [_round6(t) for t in result.per_term],
        "n_used": list(result.n_used),
        "bound_satisfied": abs(numerator) <= 2 * denominator,
    }
    if counterfactual:
        report["per_trial_max_abs"] = float(np.abs(termwise_bound_check(dataset)).max())
    return report


def cmd_estimate(args: argparse.Namespace) -> dict:
    return _estimate_dict(*_read_trials(args.in_path))


def _cascade(args: argparse.Namespace):
    """The loaded sub-runs, the lists the cascade ran on, and its report."""
    loaded = dataset = ingest_csv(args.in_path)
    gamma_subruns(loaded)  # names an empty list, which no trimming can mend
    if len(set(loaded.counts)) != 1:
        if not args.trim:
            raise ValueError(
                f"cascade requires equal sub-run lengths, got {loaded.counts} "
                "(pass --trim to truncate all lists to the shortest; lossy)"
            )
        print(
            f"note: trimming sub-run lists {loaded.counts} to {min(loaded.counts)} trials each",
            file=sys.stderr,
        )
        dataset = trim_to_shortest(loaded)
    policy = ResortPolicy(RngSpec(args.seed) if args.policy == "uniform-random" else None)
    return loaded, dataset, resort_cascade(dataset, policy)


def _report_dict(report) -> dict:
    return {
        "feasible": list(report.feasible),
        "closure": report.closure,
        "hamming_b": report.hamming_b,
        "gamma_subruns": _round6(report.gamma_subruns),
        "gamma_resorted": _round6(report.gamma_resorted),
        "count_deficits": list(report.count_deficits),
    }


def cmd_resort(args: argparse.Namespace) -> dict:
    return _report_dict(_cascade(args)[2])


def _sweep_rows(args: argparse.Namespace) -> Iterator[tuple[float, SettingsQuad]]:
    """Each row's offset and settings; a ValueError names the first invalid row."""
    # The offset rotates both arm-B analyzers; arm A stays put, so the
    # four pairwise differences (and gamma) actually move.
    base = args.angles or _default_quad(args.law)
    for offset in np.linspace(args.offset_min, args.offset_max, args.steps + 1):
        try:
            quad = SettingsQuad.from_degrees(
                base.a.degrees, base.d.degrees, base.b.degrees + offset, base.c.degrees + offset
            )
        except ValueError as exc:  # a huge offset rounds the arm-B angles together
            raise ValueError(f"offset {offset:g} degrees gives no valid settings: {exc}") from None
        yield offset, quad


def cmd_sweep(args: argparse.Namespace) -> str:
    rng = RngSpec(args.seed)
    lines = ["offset_deg,gamma_theory,gamma_empirical"]
    for i, (offset, quad) in enumerate(_sweep_rows(args)):
        theory = theory_gamma(quad, args.law)
        empirical = gamma_subruns(
            generate_subruns(quad, args.law, args.n_per, rng.derive(i))
        ).value
        lines.append(f"{float(offset)!r},{theory:.6f},{empirical:.6f}")
    return "\n".join(lines) + "\n"


def cmd_audit(args: argparse.Namespace) -> dict:
    loaded, dataset, report = _cascade(args)
    # The estimate covers every loaded trial, before any trimming.
    estimate = _estimate_dict("subruns", loaded)

    n = len(dataset.ab)
    k_b1 = dataset.ab.b.plus_count()
    k_b3 = dataset.db.b.plus_count()
    counts_match = k_b1 == k_b3
    coincidence = closure_probability(n, k_b1) if counts_match else 0.0
    verdict = RESORTABLE if (report.all_feasible and report.closure) else NOT_RESORTABLE
    return {
        "estimate": estimate,
        "resort": _report_dict(report),
        "closure_context": {
            "n": n,
            "plus_count_b1": k_b1,
            "plus_count_b3": k_b3,
            "counts_match": counts_match,
            "coincidence_probability": coincidence,
        },
        "verdict": verdict,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chshkit",
        description="Simulate and analyze CHSH trial data: estimators, bounds, re-sorting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cascade = argparse.ArgumentParser(add_help=False)  # options of resort and audit
    cascade.add_argument("--in", required=True, dest="in_path")
    cascade.add_argument("--trim", action="store_true",
                         help="truncate unequal sub-run lists to the shortest (lossy)")
    cascade.add_argument("--policy", choices=("stable", "uniform-random"), default="stable")
    cascade.add_argument("--seed", type=_seed,
                         help="required with, and only with, --policy uniform-random")
    cascade.add_argument("--out", dest="out_path", help="report path (default: stdout)")

    sim = sub.add_parser("simulate", help="generate a trial CSV")
    sim.add_argument("--mode", choices=("lhv", "qm"), required=True)
    sim.add_argument("--n", type=_positive_int, help="trial count (lhv mode)")
    sim.add_argument("--n-per", type=_positive_int, help="trials per sub-run (qm mode)")
    sim.add_argument("--seed", type=_seed, required=True)
    sim.add_argument("--angles", type=_angles, metavar="A,D,B,C",
                     help="analyzer angles in degrees (default: optimal quad for the law)")
    sim.add_argument("--law", type=_law,
                     help="pair-correlation law for qm mode (photon-malus | spin-half); "
                          "without --angles it also picks either mode's default quad")
    sim.add_argument("--out", required=True, dest="out_path")
    sim.set_defaults(run=cmd_simulate)

    spl = sub.add_parser("split", help="split a counterfactual CSV into random sub-runs")
    spl.add_argument("--in", required=True, dest="in_path")
    spl.add_argument("--seed", type=_seed, required=True)
    spl.add_argument("--out", required=True, dest="out_path")
    spl.set_defaults(run=cmd_split)

    est = sub.add_parser("estimate", help="gamma report from a trial CSV")
    est.add_argument("--in", required=True, dest="in_path")
    est.add_argument("--out", dest="out_path", help="report path (default: stdout)")
    est.set_defaults(run=cmd_estimate)

    res = sub.add_parser("resort", parents=[cascade], help="run the re-sorting cascade")
    res.set_defaults(run=cmd_resort)

    swp = sub.add_parser("sweep", help="angle-offset curve of theory vs empirical gamma")
    swp.add_argument("--steps", type=_positive_int, default=16,
                     help="number of intervals; the CSV gets steps+1 rows")
    swp.add_argument("--offset-min", type=_finite_float, default=0.0, dest="offset_min")
    swp.add_argument("--offset-max", type=_finite_float, default=90.0, dest="offset_max")
    swp.add_argument("--n-per", type=_positive_int, default=10000)
    swp.add_argument("--seed", type=_seed, required=True)
    swp.add_argument("--law", type=_law, default=CorrelationLaw.PHOTON_MALUS)
    swp.add_argument("--angles", type=_angles, metavar="A,D,B,C",
                     help="base quad in degrees (default: optimal quad for the law)")
    swp.add_argument("--out", required=True, dest="out_path")
    swp.set_defaults(run=cmd_sweep)

    aud = sub.add_parser("audit", parents=[cascade],
                         help="estimate + cascade + closure odds, one JSON verdict")
    aud.set_defaults(run=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            counts = {"--n": args.n, "--n-per": args.n_per}
            needed, unused = ("--n", "--n-per") if args.mode == "lhv" else ("--n-per", "--n")
            if counts[needed] is None:
                parser.error(f"--mode {args.mode} requires {needed}")
            if counts[unused] is not None:
                parser.error(f"--mode {args.mode} takes no {unused}")
            if args.mode == "lhv" and args.angles and args.law:
                parser.error("--mode lhv takes no --law with --angles")
        if args.command == "sweep":
            if not math.isfinite(args.offset_max - args.offset_min):
                parser.error("--offset-max minus --offset-min must be finite")
            try:  # every row is checked before anything is drawn; no row is kept
                for _ in _sweep_rows(args):
                    pass
            except ValueError as exc:
                parser.error(str(exc))
        policy = getattr(args, "policy", None)
        if policy == "uniform-random" and args.seed is None:
            parser.error("--seed is required with --policy uniform-random")
        if policy == "stable" and args.seed is not None:
            parser.error("--seed is used only with --policy uniform-random")
        output = args.run(args)
        # A report's findings (an open cascade, a violated bound) are its
        # content, not errors: a command that returns exits 0.
        if output is not None:
            if not isinstance(output, str):
                import json  # loaded only for a report: simulate, split and sweep skip it

                output = json.dumps(output, indent=2) + "\n"
            with _output(sys.stdout if args.out_path is None else args.out_path) as stream:
                stream.write(output)
        return 0
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
