"""Shared construction helpers for the test suite."""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

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


def exact_two_dataset() -> SubRunDataset:
    """Sub-runs whose Gamma is exactly 2 but sums to 2.0000000000000004 in floats.

    Counts (24, 20, 10, 24), product sums (22, 14, 8, 10): 11/12 + 7/10
    + 4/5 - 5/12 = 2.
    """

    def agreeing(n: int, product_sum: int) -> SubRunPairs:
        disagree = (n - product_sum) // 2
        return pairs([1] * n, [1] * (n - disagree) + [-1] * disagree)

    return SubRunDataset(agreeing(24, 22), agreeing(20, 14), agreeing(10, 8), agreeing(24, 10))


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


def _reference_header(fieldnames, expected):
    got = list(fieldnames or [])
    missing = [c for c in expected if c not in got]
    if missing:
        raise CsvFormatError(f"missing column(s): {', '.join(missing)}")
    extra = [c for c in got if c not in expected]
    if extra:
        raise CsvFormatError(f"unexpected column(s): {', '.join(extra)}")


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
    reader = csv.DictReader(io.StringIO(text, newline=""))
    _reference_header(reader.fieldnames, ("pair", "outcome_a", "outcome_b"))
    buckets = {label: ([], []) for label in PAIR_LABELS}
    row_num = 0
    for record in reader:
        row_num += 1
        if None in record or None in record.values():
            raise CsvFormatError(f"wrong number of fields at row {row_num}")
        label = (record["pair"] or "").strip()
        if label not in buckets:
            raise CsvFormatError(f"unknown setting pair {label!r} at row {row_num}")
        a = _reference_outcome(record["outcome_a"], "outcome_a", row_num)
        b = _reference_outcome(record["outcome_b"], "outcome_b", row_num)
        buckets[label][0].append(a)
        buckets[label][1].append(b)
    if row_num == 0:
        raise CsvFormatError("no trials")
    return [side for label in PAIR_LABELS for side in buckets[label]]


def reference_ingest_counterfactual(text: str) -> list[list[int]]:
    reader = csv.DictReader(io.StringIO(text, newline=""))
    _reference_header(reader.fieldnames, ("j", "a", "d", "b", "c"))
    columns = {name: [] for name in "adbc"}
    row_num = 0
    for record in reader:
        row_num += 1
        if None in record or None in record.values():
            raise CsvFormatError(f"wrong number of fields at row {row_num}")
        try:
            int((record["j"] or "").strip())
        except ValueError:
            raise CsvFormatError(f"invalid trial index {record['j']!r} at row {row_num}") from None
        for name in "adbc":
            columns[name].append(_reference_outcome(record[name], name, row_num))
    if row_num == 0:
        raise CsvFormatError("no trials")
    return [columns[name] for name in "adbc"]


# Reference cascade: the re-sorting cascade as the package ran it before
# its single loop over int8 arrays, one step closure per term and every
# intermediate list rebuilt as validated pairs.  Its class matching is
# copied too, so a report it returns fixes the permutations, leftover
# pairings and RNG draws the package must reproduce.


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


def reference_resort_cascade(data: SubRunDataset, policy: ResortPolicy = STABLE) -> ResortReport:
    counts = data.counts
    if len(set(counts)) != 1:
        raise ValueError(f"cascade requires equal sub-run lengths, got {counts}")
    gamma_plain = gamma_subruns(data).value

    a1, b1 = data.ab.a, data.ab.b

    def step(index, target, source_pairs, source_side):
        source = source_pairs.a if source_side == "a" else source_pairs.b
        random = policy.kind == "uniform-random"
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
    return ResortReport(
        feasible=feasible,
        perms=(perm2, perm4, perm3),
        count_deficits=(deficit2, deficit4, deficit3),
        closure=closure,
        hamming_b=hamming,
        gamma_subruns=gamma_plain,
        gamma_resorted=factored,
    )


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
        for label, (_, pairs) in enumerate(dataset.items()):
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
