"""Shared construction helpers for the test suite."""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

import chshkit
from chshkit import (
    PAIR_LABELS,
    STABLE,
    Angle,
    CounterfactualDataset,
    CsvFormatError,
    OutcomeSequence,
    ResortPolicy,
    ResortReport,
    RngSpec,
    SubRunDataset,
    SubRunPairs,
    gamma_subruns,
)
from chshkit.sources import _output


def seq(*values: int) -> OutcomeSequence:
    return OutcomeSequence(np.array(values, dtype=np.int8))


def pairs(a_side, b_side) -> SubRunPairs:
    return SubRunPairs(
        OutcomeSequence(np.asarray(a_side, dtype=np.int8)),
        OutcomeSequence(np.asarray(b_side, dtype=np.int8)),
    )


def _agreeing(n: int, product_sum: int) -> SubRunPairs:
    """n pairs whose products sum to ``product_sum``: the last ones disagree."""
    disagree = (n - product_sum) // 2
    return pairs([1] * n, [1] * (n - disagree) + [-1] * disagree)


def exact_two_dataset() -> SubRunDataset:
    """Sub-runs whose Gamma is exactly 2 but whose four float terms sum to 2.0000000000000004.

    Counts (24, 20, 10, 24), product sums (22, 14, 8, 10): 11/12 + 7/10
    + 4/5 - 5/12 = 2.
    """
    return SubRunDataset(_agreeing(24, 22), _agreeing(20, 14), _agreeing(10, 8), _agreeing(24, 10))


def just_above_two_dataset(sign: int = 1) -> SubRunDataset:
    """Sub-runs whose Gamma is 2 + 2/812702998307594909, which rounds to 2.0.

    Counts (30011, 30013, 30029, 30047), whose least common multiple is
    812702998307594909; the product sums (26167, 6455, 5503, -21927)
    solve Gamma = 2 + 2/lcm by the Chinese remainder theorem.  With
    ``sign=-1`` every sum is negated, and so is Gamma.
    """
    counts, sums = (30011, 30013, 30029, 30047), (26167, 6455, 5503, -21927)
    return SubRunDataset(*(_agreeing(n, sign * s) for n, s in zip(counts, sums)))


def switch_pattern(s: OutcomeSequence) -> list[int]:
    """Positions i >= 1 where the sequence changes sign relative to i-1."""
    if len(s) == 0:
        raise ValueError("empty sequence")
    v = s.values
    return [int(i) for i in np.flatnonzero(v[1:] != v[:-1]) + 1]


def lhv_malus_correlation(alpha: Angle, beta: Angle) -> float:
    """Closed-form pair correlation of the sign-malus model.

    With lambda uniform on [0, pi) the product of the two sign responses
    averages to 1 - 4*delta/pi, delta being the angle distance folded
    into [0, pi/2].
    """
    d = abs(alpha.radians - beta.radians) % math.pi
    folded = min(d, math.pi - d)
    return 1.0 - 4.0 * folded / math.pi


def reference_generator(spec: RngSpec) -> np.random.Generator:
    """The stream ``spec`` names, built as RngSpec.generator() once built it.

    ``Philox(key=...)`` keys the generator with [seed, stream] at
    counter 0; the package must give the same draws without it.
    """
    key = np.array([spec.seed, spec.stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def random_signs(g: np.random.Generator, n: int) -> np.ndarray:
    return (g.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)


def random_counterfactual(rng: RngSpec, n: int) -> CounterfactualDataset:
    """Arbitrary counterfactual dataset: four independent fair-coin columns."""
    g = rng.generator()
    cols = [random_signs(g, n) for _ in range(4)]
    return CounterfactualDataset(*(OutcomeSequence(c) for c in cols))


def shared_run_dataset(
    data: CounterfactualDataset, rng: RngSpec | None = None
) -> SubRunDataset:
    """All four sub-run lists drawn from ONE counterfactual run.

    Every list has the full n trials; with ``rng`` given each list is
    independently shuffled (pairs kept intact), otherwise all four keep
    the source order.  Every cascade step is count-feasible by
    construction since each shared side is a permutation of the same
    column.
    """
    n = data.n
    g = rng.generator() if rng is not None else None

    def order() -> np.ndarray:
        return g.permutation(n) if g is not None else np.arange(n)

    column_pairs = (
        (data.a_seq, data.b_seq),
        (data.a_seq, data.c_seq),
        (data.d_seq, data.b_seq),
        (data.d_seq, data.c_seq),
    )
    lists = []
    for x, y in column_pairs:
        idx = order()
        lists.append(pairs(x.values[idx], y.values[idx]))
    return SubRunDataset(*lists)


def feasible_dataset(rng: RngSpec, n: int) -> SubRunDataset:
    """Random sub-run dataset that is count-feasible at every cascade step.

    The ac list's a-side is a permutation of the ab list's a-side, the
    dc list's c-side a permutation of the ac list's c-side, and the db
    list's d-side a permutation of the dc list's d-side; all other
    sides are fresh coin flips.
    """
    g = rng.generator()
    a1, b1 = random_signs(g, n), random_signs(g, n)
    a2 = g.permutation(a1)
    c2 = random_signs(g, n)
    c4 = g.permutation(c2)
    d4 = random_signs(g, n)
    d3 = g.permutation(d4)
    b3 = random_signs(g, n)
    return SubRunDataset(ab=pairs(a1, b1), ac=pairs(a2, c2), db=pairs(d3, b3), dc=pairs(d4, c4))


def all_sign_rows(n: int) -> np.ndarray:
    """All 2**n sign vectors of length n as an int8 matrix (rows)."""
    m = np.arange(2**n, dtype=np.int64)
    bits = (m[:, None] >> np.arange(n)) & 1
    return (bits * 2 - 1).astype(np.int8)


# Reference row parsers: one csv.DictReader pass, one row at a time, as
# the package read trial CSVs before its chunked columnar ingest.  They
# take the CSV text and return the columns as lists (sub-run: a and b
# per label in canonical order; counterfactual: a, d, b, c), raising
# the CsvFormatError the package must raise.


def _reference_records(text, expected):
    """Each data record with its 1-based row number, the header checked first.

    A csv.reader error is named in the header or at the row it ends.
    """
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        got = list(reader.fieldnames or [])
    except csv.Error as exc:
        raise CsvFormatError(f"{exc} in the header") from None
    missing = [c for c in expected if c not in got]
    if missing:
        raise CsvFormatError(f"missing column(s): {', '.join(missing)}")
    extra = [c for c in got if c not in expected]
    if len(extra) > 8:
        raise CsvFormatError(f"unexpected column(s): {', '.join(extra[:8])} and {len(extra) - 8} more")
    if extra:
        raise CsvFormatError(f"unexpected column(s): {', '.join(extra)}")
    row_num = 0
    while True:
        try:
            record = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise CsvFormatError(f"{exc} at row {row_num + 1}") from None
        row_num += 1
        if None in record or None in record.values():
            raise CsvFormatError(f"wrong number of fields at row {row_num}")
        yield row_num, record
    if row_num == 0:
        raise CsvFormatError("no trials")


def _reference_outcome(text, column, row):
    try:
        value = int(text.strip())
    except (TypeError, ValueError, AttributeError):
        raise CsvFormatError(
            f"invalid outcome {text!r} in column {column!r} at row {row}"
        ) from None
    if value not in (1, -1):
        raise CsvFormatError(
            f"outcome outside {{+1, -1}}: {text!r} in column {column!r} at row {row}"
        )
    return value


def reference_ingest_subruns(text: str) -> list[list[int]]:
    buckets = {label: ([], []) for label in PAIR_LABELS}
    for row_num, record in _reference_records(text, ("pair", "outcome_a", "outcome_b")):
        label = (record["pair"] or "").strip()
        if label not in buckets:
            raise CsvFormatError(f"unknown setting pair {label!r} at row {row_num}")
        a = _reference_outcome(record["outcome_a"], "outcome_a", row_num)
        b = _reference_outcome(record["outcome_b"], "outcome_b", row_num)
        buckets[label][0].append(a)
        buckets[label][1].append(b)
    return [side for label in PAIR_LABELS for side in buckets[label]]


def reference_ingest_counterfactual(text: str) -> list[list[int]]:
    columns = {name: [] for name in "adbc"}
    for row_num, record in _reference_records(text, ("j", "a", "d", "b", "c")):
        try:
            int((record["j"] or "").strip())
        except ValueError:
            raise CsvFormatError(f"invalid trial index {record['j']!r} at row {row_num}") from None
        for name in "adbc":
            columns[name].append(_reference_outcome(record[name], name, row_num))
    return [columns[name] for name in "adbc"]


# Reference cascade: the re-sorting cascade as the package ran it before
# its single loop over int8 arrays, one step closure per term and every
# intermediate list rebuilt as validated pairs by an int64 permutation.
# Its class matching is copied too, so the report and the permutations it
# returns fix the leftover pairings and RNG draws the package must
# reproduce.


def _reference_class_matching(target, source, g):
    n = target.size
    t_plus = np.flatnonzero(target == 1)
    t_minus = np.flatnonzero(target == -1)
    s_plus = np.flatnonzero(source == 1)
    s_minus = np.flatnonzero(source == -1)
    if g is not None:
        s_plus = g.permutation(s_plus)
        s_minus = g.permutation(s_minus)
    m_plus = min(t_plus.size, s_plus.size)
    m_minus = min(t_minus.size, s_minus.size)
    perm = np.empty(n, dtype=np.int64)
    perm[t_plus[:m_plus]] = s_plus[:m_plus]
    perm[t_minus[:m_minus]] = s_minus[:m_minus]
    leftover_t = np.concatenate([t_plus[m_plus:], t_minus[m_minus:]])
    leftover_s = np.concatenate([s_plus[m_plus:], s_minus[m_minus:]])
    perm[leftover_t] = leftover_s
    return perm


def _reference_factored_gamma(a1, b1, c2, d4, b3):
    n = len(a1)
    first = int(np.sum(a1.values * (b1.values + c2.values), dtype=np.int64))
    second = int(np.sum(d4.values * (b3.values - c2.values), dtype=np.int64))
    return (first + second) / n


def reference_resort_cascade(
    data: SubRunDataset, policy: ResortPolicy = STABLE
) -> tuple[ResortReport, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    counts = data.counts
    if len(set(counts)) != 1:
        raise ValueError(f"cascade requires equal sub-run lengths, got {counts}")
    gamma_plain = gamma_subruns(data).value

    a1, b1 = data.ab.a, data.ab.b

    def step(index, target, source_pairs, source_side):
        source = source_pairs.a if source_side == "a" else source_pairs.b
        random = policy.rng is not None
        g = policy.rng.derive(index).generator() if random else None
        perm = _reference_class_matching(target.values, source.values, g)
        deficit = target.plus_count() - source.plus_count()
        moved = SubRunPairs(
            OutcomeSequence(source_pairs.a.values[perm]),
            OutcomeSequence(source_pairs.b.values[perm]),
        )
        return perm, deficit == 0, deficit, moved

    perm2, ok2, deficit2, ac_rs = step(0, a1, data.ac, "a")
    perm4, ok4, deficit4, dc_rs = step(1, ac_rs.b, data.dc, "b")
    perm3, ok3, deficit3, db_rs = step(2, dc_rs.a, data.db, "a")

    b3_rs = db_rs.b
    closure = bool(np.array_equal(b1.values, b3_rs.values))
    hamming = int(np.count_nonzero(b1.values != b3_rs.values))

    feasible = (ok2, ok4, ok3)
    factored = (
        _reference_factored_gamma(a1, b1, ac_rs.b, dc_rs.a, b3_rs) if all(feasible) else None
    )
    report = ResortReport(
        count_deficits=(deficit2, deficit4, deficit3),
        hamming_b=hamming,
        gamma_subruns=gamma_plain,
        gamma_resorted=factored,
    )
    # The report derives both verdicts; they must agree with this
    # reference's own rules.
    assert report.feasible == feasible and report.closure == closure
    return report, (perm2, perm4, perm3)


# Reference Monte-Carlo closure odds: the loop closure_probability ran
# before it drew its chunks in pieces, each side of a chunk as one
# (m, n) draw.  Its chunk size and draw order fix the estimate the
# package must return for a seed.


def reference_closure_mc(n: int, k: int, trials: int, rng: RngSpec) -> float:
    g = rng.generator()
    hits = 0
    done = 0
    chunk = max(1, 1_000_000 // max(n, 1))
    while done < trials:
        m = min(chunk, trials - done)
        ones_1 = g.random((m, n)).argsort(axis=1) < k
        ones_2 = g.random((m, n)).argsort(axis=1) < k
        hits += int(np.sum(np.all(ones_1 == ones_2, axis=1)))
        done += m
    return hits / trials


# Reference qm draws: the signs from Generator.integers and the agreement
# test on Generator.random's doubles, as qm_generate drew them before it
# read raw Philox words.  The package must give exactly these pairs.


def reference_qm_generate(alpha: Angle, beta: Angle, law, n: int, rng: RngSpec) -> tuple[np.ndarray, np.ndarray]:
    e = law.pair_correlation(alpha, beta)
    g = reference_generator(rng)
    s = g.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
    t = s * ((g.random(n) < (1.0 + e) / 2.0).view(np.int8) * 2 - 1)
    return s, t


# Reference random split: the whole int64 assignment drawn at once, as
# split_random drew it before it drew in blocks, and each list cut by its
# own mask.  The package's lists must hold exactly these outcomes.


def reference_split_random(data: CounterfactualDataset, rng: RngSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    assignment = rng.generator().integers(0, 4, size=data.n)
    a, d, b, c = (s.values for s in data.sequences)
    return [(x[assignment == code], y[assignment == code])
            for code, (x, y) in enumerate(((a, b), (a, c), (d, b), (d, c)))]


# A launcher for spawn_peak_rss_mb.  A spawned child shares its parent's
# memory until it execs, and the kernel counts the parent's peak as the
# child's, so the launcher is a bare `python -S`, smaller than any command.
_RSS_LAUNCHER = """\
import os, sys
with open(os.devnull, "wb") as devnull:
    pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                         file_actions=[(os.POSIX_SPAWN_DUP2, devnull.fileno(), 1)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def spawn_peak_rss_mb(argv: list[str], exit_code: int = 0) -> float:
    """Peak RSS in MB (2**20 bytes) of ``argv`` run to completion, its stdout discarded.

    ``argv[0]`` is the program's path.  The figure is the ``ru_maxrss``
    that ``os.wait4`` returns for the child (Linux counts it in KiB).
    Raises ``subprocess.CalledProcessError`` if the command exits with
    another code than ``exit_code``.
    """
    launched = subprocess.run([sys.executable, "-S", "-c", _RSS_LAUNCHER, *argv],
                              capture_output=True, text=True, check=True)
    code, kib = map(int, launched.stdout.split())
    if code != exit_code:
        raise subprocess.CalledProcessError(code, argv, stderr=launched.stderr)
    return kib / 1024


def traced_peak(call, *args) -> int:
    """The most memory, by tracemalloc, that ``call(*args)`` held at once."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Reference writers: one Python string per row, as the package wrote
# trial CSVs before it built each block of rows from a byte table.  The
# package's writers must give exactly their text.

_REFERENCE_WRITE_ROWS = 4_096
_REFERENCE_SUBRUN_ROWS = tuple(
    f"{label},{a:+d},{b:+d}\n" for label in PAIR_LABELS for a in (-1, 1) for b in (-1, 1)
)
_REFERENCE_COUNTERFACTUAL_CELLS = tuple(
    "".join(f",{v:+d}" for v in outcomes) + "\n"
    for outcomes in itertools.product((-1, 1), repeat=4)
)


def reference_write_subrun_csv(dataset: SubRunDataset, dest) -> None:
    with _output(dest) as stream:
        stream.write("pair,outcome_a,outcome_b\n")
        for label, pairs in enumerate(dataset.lists):
            for start in range(0, len(pairs), _REFERENCE_WRITE_ROWS):
                a, b = (s.values[start : start + _REFERENCE_WRITE_ROWS] > 0 for s in (pairs.a, pairs.b))
                codes = 4 * label + 2 * a + b
                stream.write("".join(map(_REFERENCE_SUBRUN_ROWS.__getitem__, codes.tolist())))


def reference_write_counterfactual_csv(dataset: CounterfactualDataset, dest) -> None:
    seqs = (dataset.a_seq, dataset.d_seq, dataset.b_seq, dataset.c_seq)
    with _output(dest) as stream:
        stream.write("j,a,d,b,c\n")
        for start in range(0, dataset.n, _REFERENCE_WRITE_ROWS):
            a, d, b, c = (s.values[start : start + _REFERENCE_WRITE_ROWS] > 0 for s in seqs)
            codes = (8 * a + 4 * d + 2 * b + c).tolist()
            cells = map(_REFERENCE_COUNTERFACTUAL_CELLS.__getitem__, codes)
            indices = map(str, itertools.count(start + 1))
            stream.write("".join(map(str.__add__, indices, cells)))


# CLI digest manifest: every command's stdout, stderr, exit code and
# written files, pinned as sha256 digests in tests/data/cli_digests.json.
# A change that alters an output on purpose regenerates the manifest
# with regen_cli_digests() and names each changed case.

CLI_DIGESTS = Path(__file__).resolve().parent / "data" / "cli_digests.json"
_SUBRUN_HEADER = b"pair,outcome_a,outcome_b\n"


def _shared_origin_rows() -> bytes:
    """Four sub-run lists cut from one counterfactual run of all 16 outcome
    tuples, in one order: every cascade step is feasible and closes."""
    trials = list(itertools.product((1, -1), repeat=4))  # (a, d, b, c)
    lists = {"ab": (0, 2), "ac": (0, 3), "db": (1, 2), "dc": (1, 3)}
    return b"".join(
        f"{label},{t[x]:+d},{t[y]:+d}\n".encode() for label, (x, y) in lists.items() for t in trials
    )


#: Input files of the manifest's cases, by name.
CLI_INPUTS = {
    "shared.csv": _SUBRUN_HEADER + _shared_origin_rows(),
    "unequal.csv": _SUBRUN_HEADER
    + b"ab,+1,+1\nab,-1,+1\nab,+1,-1\nac,+1,-1\nac,-1,-1\ndb,+1,+1\ndb,-1,-1\ndc,-1,-1\ndc,+1,+1\n",
    "empty.csv": b"",
    "blank-first-line.csv": b"\n" + _SUBRUN_HEADER + b"ab,+1,+1\n",
    "header-x-y.csv": b"x,y\n1,2\n",
    "header-not-utf8.csv": b"\xff,x\n1,2\n",
    "header-quoted.csv": b'"pair","outcome_a","outcome_b"\nab,+1,+1\nac,+1,+1\ndb,+1,+1\ndc,+1,-1\n',
    "header-space-pair.csv": b" pair,outcome_a,outcome_b\nab,+1,+1\n",
    "header-only.csv": _SUBRUN_HEADER,
    "nbsp-cell.csv": _SUBRUN_HEADER + "ab,-1\xa0,+1\nac,+1,+1\ndb,+1,+1\ndc,+1,-1\n".encode(),
    "invalid-utf8-row.csv": _SUBRUN_HEADER + b"ab,+1,+1\nac,+1,\xff1\ndb,+1,+1\n",
    "field-over-limit.csv": _SUBRUN_HEADER + b"ab,+1,+1\nac," + b"1" * 200_000 + b",+1\n",
    "header-field-over-limit.csv": b"pair,outcome_a," + b"b" * 140_000 + b"\nab,+1,+1\n",
    "bad-split-row.csv": _SUBRUN_HEADER + b"ab,+1,+1\nac,+1,x\n",
    # 40,000 equal rows; row 30,000, in a later (fixed-layout) block, is bad.
    "bad-fixed-row.csv": _SUBRUN_HEADER
    + b"ab,+1,-1\n" * 29_999 + b"ab,+2,-1\n" + b"ab,+1,-1\n" * 10_000,
    "bad-quoted-row.csv": b'"pair",outcome_a,outcome_b\nab,"+1",+1\nac,+1,"0"\n',
    "bad-index.csv": b"j,a,d,b,c\n1,+1,+1,+1,+1\nx,+1,+1,+1,+1\n",
}

#: Each case's argv, run in one directory holding CLI_INPUTS, in this
#: order: a case may read a file that an earlier case wrote.
CLI_CASES = {
    # simulate and split; the first three files were pinned when each
    # row was still written as its own Python string.
    "simulate-qm": "simulate --mode qm --n-per 20000 --seed 101 --out qm.csv",
    "simulate-lhv": "simulate --mode lhv --n 123457 --seed 102 --out lhv.csv",
    "split": "split --in lhv.csv --seed 103 --out split.csv",
    "simulate-qm-spin-half": "simulate --mode qm --law spin-half --n-per 500 --seed 104 --out spin.csv",
    "simulate-qm-angles": "simulate --mode qm --angles 10,50,30,70 --n-per 500 --seed 105 --out qm-angles.csv",
    "simulate-lhv-angles": "simulate --mode lhv --angles 10,50,30,70 --n 2000 --seed 106 --out lhv-angles.csv",
    "simulate-qm-small": "simulate --mode qm --n-per 300 --seed 107 --out qm-small.csv",
    # estimate on both kinds, and on each header and cell case
    "estimate-subruns": "estimate --in qm.csv",
    "estimate-counterfactual": "estimate --in lhv.csv",
    "estimate-split-to-file": "estimate --in split.csv --out estimate.json",
    "estimate-spin-half": "estimate --in spin.csv",
    "estimate-lhv-angles": "estimate --in lhv-angles.csv",
    "estimate-missing-file": "estimate --in absent.csv",
    "estimate-out-missing-dir": "estimate --in qm.csv --out absent/estimate.json",
    "estimate-empty": "estimate --in empty.csv",
    "estimate-blank-first-line": "estimate --in blank-first-line.csv",
    "estimate-header-x-y": "estimate --in header-x-y.csv",
    "estimate-header-not-utf8": "estimate --in header-not-utf8.csv",
    "estimate-header-quoted": "estimate --in header-quoted.csv",
    "estimate-header-space-pair": "estimate --in header-space-pair.csv",
    "estimate-header-only": "estimate --in header-only.csv",
    "estimate-nbsp-cell": "estimate --in nbsp-cell.csv",
    "estimate-invalid-utf8-row": "estimate --in invalid-utf8-row.csv",
    "estimate-field-over-limit": "estimate --in field-over-limit.csv",
    "estimate-header-field-over-limit": "estimate --in header-field-over-limit.csv",
    "resort-header-field-over-limit": "resort --in header-field-over-limit.csv",
    # one CsvFormatError on each ingest path
    "resort-bad-split-row": "resort --in bad-split-row.csv",
    "resort-bad-fixed-row": "resort --in bad-fixed-row.csv",
    "audit-bad-quoted-row": "audit --in bad-quoted-row.csv",
    "split-bad-index": "split --in bad-index.csv --seed 1 --out bad-split.csv",
    # resort and audit under both policies
    "resort-stable": "resort --in qm-small.csv",
    "resort-uniform": "resort --in qm-small.csv --policy uniform-random --seed 108",
    "resort-shared-stable": "resort --in shared.csv",
    "resort-shared-uniform": "resort --in shared.csv --policy uniform-random --seed 109 --out resort.json",
    "resort-unequal": "resort --in unequal.csv",
    "resort-unequal-trim": "resort --in unequal.csv --trim",
    "audit-stable": "audit --in qm-small.csv",
    "audit-uniform": "audit --in qm-small.csv --policy uniform-random --seed 110",
    "audit-shared-stable": "audit --in shared.csv --out audit.json",
    "audit-shared-uniform": "audit --in shared.csv --policy uniform-random --seed 111",
    "audit-unequal": "audit --in unequal.csv",
    "audit-unequal-trim": "audit --in unequal.csv --trim --policy uniform-random --seed 112",
    # sweep
    "sweep-default": "sweep --seed 113 --out sweep.csv",
    "sweep-spin-half": "sweep --law spin-half --offset-min=-30 --offset-max 200 --steps 23 --n-per 2000 --seed 114 --out sweep-spin.csv",
    "sweep-finite-span": "sweep --offset-min 1e10 --offset-max 1e12 --steps 4 --n-per 100 --seed 115 --out sweep-span.csv",
    # usage errors (exit 2), and help
    "usage-no-command": "",
    "usage-unknown-command": "frobnicate",
    "usage-help": "--help",
    "usage-lhv-without-n": "simulate --mode lhv --seed 1 --out x.csv",
    "usage-qm-without-n-per": "simulate --mode qm --seed 1 --out x.csv",
    "usage-missing-seed": "simulate --mode lhv --n 10 --out x.csv",
    "usage-zero-trials": "simulate --mode lhv --n 0 --seed 1 --out x.csv",
    "usage-n-not-an-integer": "simulate --mode lhv --n ten --seed 1 --out x.csv",
    "usage-three-angles": "simulate --mode lhv --n 10 --seed 1 --angles 1,2,3 --out x.csv",
    "usage-angle-not-a-number": "simulate --mode lhv --n 10 --seed 1 --angles a,b,c,d --out x.csv",
    "usage-equal-angles": "simulate --mode lhv --n 10 --seed 1 --angles 0,0,10,20 --out x.csv",
    "usage-unknown-law": "simulate --mode qm --n-per 10 --seed 1 --law classical --out x.csv",
    "usage-negative-seed": "simulate --mode qm --n-per 2 --seed -1 --out x.csv",
    "usage-seed-over-64-bits": "split --in lhv.csv --seed 18446744073709551616 --out x.csv",
    "usage-uniform-without-seed": "resort --in qm-small.csv --policy uniform-random",
    "usage-stable-with-seed": "audit --in qm-small.csv --seed 5",
    "usage-qm-with-n": "simulate --mode qm --n 10 --n-per 10 --seed 1 --out x.csv",
    "usage-lhv-with-n-per": "simulate --mode lhv --n 10 --n-per 10 --seed 1 --out x.csv",
    "usage-lhv-angles-with-law": "simulate --mode lhv --angles 10,50,30,70 --law spin-half --n 10 --seed 1 --out x.csv",
    "usage-unknown-policy": "audit --in qm-small.csv --policy random",
    "usage-sweep-steps-zero": "sweep --steps 0 --seed 1 --out x.csv",
    "usage-sweep-nan-offset": "sweep --steps 1 --n-per 10 --seed 1 --offset-min=nan --out x.csv",
    "usage-sweep-inf-offset": "sweep --steps 1 --n-per 10 --seed 1 --offset-max=inf --out x.csv",
    "usage-sweep-offset-not-a-number": "sweep --steps 1 --n-per 10 --seed 1 --offset-max=ninety --out x.csv",
    "usage-sweep-span-overflows": "sweep --steps 1 --n-per 10 --seed 1 --offset-min=-1e308 --offset-max=1e308 --out x.csv",
    "usage-sweep-huge-offset": "sweep --steps 2 --n-per 10 --seed 1 --offset-min=0 --offset-max=1e20 --out x.csv",
}

#: Cases run as subprocesses: (argv of python, the file fed to its stdin).
CLI_PROCESS_CASES = {
    "estimate-pipe": (["-m", "chshkit", "estimate", "--in", "/dev/stdin"], "qm.csv"),
    **{
        f"demo-{demo.stem}": ([str(demo)], None)
        for demo in sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _files(directory: Path) -> dict[str, tuple]:
    return {p.name: (p.stat().st_ino, p.stat().st_mtime_ns, p.stat().st_size) for p in directory.iterdir()}


def _digest(out: bytes, err: bytes, code: int, directory: Path, before: dict) -> dict:
    after = _files(directory)
    written = sorted(name for name in after if before.get(name) != after[name])
    return {
        "stdout": _sha256(out),
        "stderr": _sha256(err),
        "exit": code,
        "files": {name: _sha256((directory / name).read_bytes()) for name in written},
    }


def cli_digests(directory: Path, readouterr) -> dict[str, dict]:
    """Run every manifest case in ``directory`` and digest what each gives.

    In-process cases run through ``cli.main``; ``readouterr()`` returns the
    (stdout, stderr) text captured since its last call, as pytest's
    ``capsys.readouterr`` does.
    """
    from chshkit.cli import main

    for name, data in CLI_INPUTS.items():
        (directory / name).write_bytes(data)
    package_root = str(Path(chshkit.__file__).resolve().parent.parent)
    digests = {}
    saved = os.getcwd()
    os.chdir(directory)
    try:
        # argparse wraps its usage text to the terminal's width.
        with mock.patch.dict(os.environ, COLUMNS="80"):
            path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
            env = {**os.environ, "PYTHONPATH": path}
            readouterr()
            for name, argv in CLI_CASES.items():
                before = _files(directory)
                try:
                    code = main(argv.split())
                except SystemExit as exc:
                    code = exc.code
                out, err = readouterr()
                digests[name] = _digest(out.encode(), err.encode(), code, directory, before)
            for name, (argv, stdin) in CLI_PROCESS_CASES.items():
                before = _files(directory)
                feed = (directory / stdin).read_bytes() if stdin else b""
                proc = subprocess.run(
                    [sys.executable, *argv], input=feed, capture_output=True, env=env, timeout=120
                )
                digests[name] = _digest(proc.stdout, proc.stderr, proc.returncode, directory, before)
    finally:
        os.chdir(saved)
    return digests


def cli_digest_versions() -> dict[str, str]:
    """The versions whose behaviour the manifest pins: numpy's Generator
    streams and argparse's usage text."""
    return {"numpy": np.__version__, "python": platform.python_version()}


def regen_cli_digests() -> None:
    """Recompute the manifest with the chshkit on the import path.

    Run from the repository root:
    ``PYTHONPATH=src:tests python -c "import helpers; helpers.regen_cli_digests()"``
    """
    out, err = io.StringIO(), io.StringIO()

    def readouterr() -> tuple[str, str]:
        texts = out.getvalue(), err.getvalue()
        for stream in (out, err):
            stream.seek(0)
            stream.truncate()
        return texts

    with tempfile.TemporaryDirectory() as directory:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            cases = cli_digests(Path(directory), readouterr)
    manifest = {**cli_digest_versions(), "cases": cases}
    CLI_DIGESTS.parent.mkdir(exist_ok=True)
    CLI_DIGESTS.write_text(json.dumps(manifest, indent=1) + "\n")
