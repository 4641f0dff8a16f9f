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
import json
import math
import sys

import numpy as np

from .core import SettingsQuad
from .estimators import (
    gamma_pooled,
    gamma_subruns,
    split_random,
    termwise_bound_check,
    theory_gamma,
)
from .resort import ResortPolicy, STABLE, closure_probability, resort_cascade, trim_to_shortest
from .rng import RngSpec
from .sources import (
    CorrelationLaw,
    CsvFormatError,
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


def _emit(text: str, out_path: str | None) -> None:
    with _output(sys.stdout if out_path is None else out_path) as stream:
        stream.write(text)


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
    if kind == "subruns":
        result = gamma_subruns(dataset)
        extra: dict = {}
    else:
        result = gamma_pooled(dataset)
        extra = {"per_trial_max_abs": float(np.abs(termwise_bound_check(dataset)).max())}
    return {
        "kind": kind,
        "gamma": _round6(result.value),
        "per_term": [_round6(t) for t in result.per_term],
        "n_used": list(result.n_used),
        "bound_satisfied": abs(result.exact) <= 2,
        **extra,
    }


def cmd_estimate(args: argparse.Namespace) -> dict:
    return _estimate_dict(*_read_trials(args.in_path))


def _build_policy(args: argparse.Namespace) -> ResortPolicy:
    if args.policy == "uniform-random":
        return ResortPolicy.uniform_random(RngSpec(args.seed))
    return STABLE


def _equal_subruns(dataset, trim: bool):
    if len(set(dataset.counts)) != 1:
        if not trim:
            raise ValueError(
                f"cascade requires equal sub-run lengths, got {dataset.counts} "
                "(pass --trim to truncate all lists to the shortest; lossy)"
            )
        print(
            f"note: trimming sub-run lists {dataset.counts} to {min(dataset.counts)} trials each",
            file=sys.stderr,
        )
        dataset = trim_to_shortest(dataset)
    return dataset


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
    dataset = _equal_subruns(ingest_csv(args.in_path), args.trim)
    return _report_dict(resort_cascade(dataset, _build_policy(args)))


def _sweep_quad(args: argparse.Namespace, offset: float) -> SettingsQuad:
    # The offset rotates both arm-B analyzers; arm A stays put, so the
    # four pairwise differences (and gamma) actually move.
    base = args.angles or _default_quad(args.law)
    return SettingsQuad.from_degrees(
        base.a.degrees, base.d.degrees, base.b.degrees + offset, base.c.degrees + offset
    )


def _sweep_offsets(args: argparse.Namespace, parser: argparse.ArgumentParser) -> np.ndarray:
    """Each row's offset; a usage error if any row's settings are invalid.

    Every row is checked before anything is drawn, and no row's settings
    are kept: :func:`cmd_sweep` builds each row's again as it draws it.
    """
    if not math.isfinite(args.offset_max - args.offset_min):
        parser.error("--offset-max minus --offset-min must be finite")
    offsets = np.linspace(args.offset_min, args.offset_max, args.steps + 1)
    for offset in offsets:
        try:
            _sweep_quad(args, offset)
        except ValueError as exc:  # a huge offset rounds the arm-B angles together
            parser.error(f"offset {offset:g} degrees gives no valid settings: {exc}")
    return offsets


def cmd_sweep(args: argparse.Namespace) -> str:
    rng = RngSpec(args.seed)
    lines = ["offset_deg,gamma_theory,gamma_empirical"]
    for i, offset in enumerate(args.offsets):
        quad = _sweep_quad(args, offset)
        theory = theory_gamma(quad, args.law)
        empirical = gamma_subruns(
            generate_subruns(quad, args.law, args.n_per, rng.derive(i))
        ).value
        lines.append(f"{float(offset)!r},{theory:.6f},{empirical:.6f}")
    return "\n".join(lines) + "\n"


def cmd_audit(args: argparse.Namespace) -> dict:
    loaded = ingest_csv(args.in_path)
    dataset = _equal_subruns(loaded, args.trim)
    # The estimate covers every loaded trial, before any trimming.
    estimate = _estimate_dict("subruns", loaded)
    report = resort_cascade(dataset, _build_policy(args))

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
            args.offsets = _sweep_offsets(args, parser)
        policy = getattr(args, "policy", None)
        if policy == "uniform-random" and args.seed is None:
            parser.error("--seed is required with --policy uniform-random")
        if policy == "stable" and args.seed is not None:
            parser.error("--seed is used only with --policy uniform-random")
        output = args.run(args)
        # A report's findings (an open cascade, a violated bound) are its
        # content, not errors: a command that returns exits 0.
        if output is not None:
            _emit(output if isinstance(output, str) else json.dumps(output, indent=2) + "\n",
                  args.out_path)
        return 0
    except (CsvFormatError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
