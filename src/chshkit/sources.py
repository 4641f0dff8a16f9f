"""Trial-data sources: hidden-variable models, quantum statistics, CSV.

Two generators and one ingester:

* :func:`lhv_generate` draws a shared hidden variable per trial and fills
  in *all four* outcomes, producing the counterfactual dataset a local
  deterministic model implies.
* :func:`qm_generate` / :func:`generate_subruns` sample paired outcomes
  directly from a two-valued joint law with the quantum pair correlation,
  the way a feasible experiment produces them -- one setting pair at a
  time, nothing counterfactual retained.
* :func:`ingest_csv` / :func:`ingest_counterfactual_csv` read the two
  on-disk trial formats; ``write_*`` are their exact inverses.

CSV formats (UTF-8, header required):

* sub-run trials:        ``pair,outcome_a,outcome_b`` with pair in
  {ab, ac, db, dc}, one trial per row, outcomes written ``+1``/``-1``.
* counterfactual trials: ``j,a,d,b,c`` with 1-based j and ``+1``/``-1``
  outcome entries.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterator

import numpy as np

from .core import (
    Angle,
    CounterfactualDataset,
    OutcomeSequence,
    PAIR_LABELS,
    SettingsQuad,
    SubRunDataset,
    SubRunPairs,
)
from .rng import RngSpec

__all__ = [
    "CorrelationLaw",
    "LhvModel",
    "SIGN_MALUS",
    "LHV_MODELS",
    "lhv_model",
    "PHOTON_OPTIMAL_QUAD",
    "SPIN_OPTIMAL_QUAD",
    "lhv_outcomes",
    "lhv_generate",
    "lhv_malus_correlation",
    "qm_generate",
    "generate_subruns",
    "CsvFormatError",
    "ingest_csv",
    "ingest_counterfactual_csv",
    "write_subrun_csv",
    "write_counterfactual_csv",
]


class CorrelationLaw(Enum):
    """Pair-correlation law E(alpha, beta) for entangled pairs.

    ``PHOTON_MALUS`` is the polarization rule E = cos 2(alpha - beta),
    the Malus-law extension for photon pairs and the default everywhere.
    ``SPIN_HALF`` is the spin singlet alternative E = -cos(alpha - beta);
    note it is 2*pi-periodic in the raw angle difference, so with angles
    normalized to [0, pi) the caller picks mod-pi representatives and the
    optimum lives at e.g. (a=90, d=0, b=45, c=135 degrees).
    """

    PHOTON_MALUS = "photon-malus"
    SPIN_HALF = "spin-half"

    def pair_correlation(self, alpha: Angle, beta: Angle) -> float:
        delta = alpha.radians - beta.radians
        if self is CorrelationLaw.PHOTON_MALUS:
            return math.cos(2.0 * delta)
        return -math.cos(delta)


#: Quad attaining |Gamma| = 2*sqrt(2) under the photon-malus law.
PHOTON_OPTIMAL_QUAD = SettingsQuad.from_degrees(0.0, 45.0, 22.5, -22.5)
#: Quad attaining |Gamma| = 2*sqrt(2) under the spin-half law with
#: angles restricted to [0, pi).
SPIN_OPTIMAL_QUAD = SettingsQuad.from_degrees(90.0, 0.0, 45.0, 135.0)


@dataclass(frozen=True)
class LhvModel:
    """A local deterministic response rule A(theta, lambda) -> +1/-1.

    ``response`` maps (analyzer angle in radians, array of hidden
    variables in [0, pi)) to an int8 array of outcomes.  Locality is
    structural: the rule sees only its own arm's angle and the shared
    lambda.
    """

    name: str
    response: Callable[[float, np.ndarray], np.ndarray]


def _sign_malus_response(theta: float, lam: np.ndarray) -> np.ndarray:
    # +1 wherever the Malus intensity factor cos 2(theta-lam) is >= 0.
    return np.where(np.cos(2.0 * (theta - lam)) >= 0.0, 1, -1).astype(np.int8)


SIGN_MALUS = LhvModel("sign-malus", _sign_malus_response)

LHV_MODELS: dict[str, LhvModel] = {SIGN_MALUS.name: SIGN_MALUS}


def lhv_model(name: str) -> LhvModel:
    """Look up a built-in hidden-variable model by name."""
    try:
        return LHV_MODELS[name]
    except KeyError:
        known = ", ".join(sorted(LHV_MODELS))
        raise ValueError(f"unknown LHV model {name!r} (known: {known})") from None


def lhv_outcomes(
    model: LhvModel, settings: SettingsQuad, lam: np.ndarray
) -> CounterfactualDataset:
    """Evaluate the model at explicit hidden-variable values.

    All four sequences come from the same lambda array -- this sharing is
    what makes the dataset counterfactual.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("lambda array must be one-dimensional and nonempty")
    return CounterfactualDataset(
        a_seq=OutcomeSequence(model.response(settings.a.radians, lam)),
        d_seq=OutcomeSequence(model.response(settings.d.radians, lam)),
        b_seq=OutcomeSequence(model.response(settings.b.radians, lam)),
        c_seq=OutcomeSequence(model.response(settings.c.radians, lam)),
        settings=settings,
    )


def lhv_generate(
    model: LhvModel, settings: SettingsQuad, n: int, rng: RngSpec
) -> CounterfactualDataset:
    """Draw n trials from the model, lambda uniform on [0, pi) per trial."""
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    lam = rng.generator().uniform(0.0, math.pi, size=n)
    return lhv_outcomes(model, settings, lam)


def lhv_malus_correlation(alpha: Angle, beta: Angle) -> float:
    """Closed-form pair correlation of the sign-malus model.

    With lambda uniform on [0, pi) the product of the two sign responses
    averages to 1 - 4*delta/pi, delta being the angle distance folded
    into [0, pi/2].  Used as a reference curve in tests and demos.
    """
    d = abs(alpha.radians - beta.radians) % math.pi
    folded = min(d, math.pi - d)
    return 1.0 - 4.0 * folded / math.pi


def qm_generate(
    alpha: Angle, beta: Angle, law: CorrelationLaw, n: int, rng: RngSpec
) -> SubRunPairs:
    """Sample n outcome pairs from P(s,t) = (1 + s*t*E(alpha,beta)) / 4.

    Both marginals are uniform by construction; the correlation enters
    only through the probability that the two arms agree.
    """
    if n < 1:
        raise ValueError(f"trial count must be >= 1, got {n}")
    e = law.pair_correlation(alpha, beta)
    g = rng.generator()
    s = (g.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).astype(np.int8)
    agree = g.random(n) < (1.0 + e) / 2.0
    t = np.where(agree, s, -s).astype(np.int8)
    return SubRunPairs(OutcomeSequence(s), OutcomeSequence(t))


def generate_subruns(
    settings: SettingsQuad, law: CorrelationLaw, n_per: int, rng: RngSpec
) -> SubRunDataset:
    """Four independent fixed-setting experiments of n_per trials each.

    Each setting pair runs on its own derived stream, so the four lists
    are statistically independent even under one seed.
    """
    if n_per < 1:
        raise ValueError(f"trial count must be >= 1, got {n_per}")
    combos = (
        (settings.a, settings.b),
        (settings.a, settings.c),
        (settings.d, settings.b),
        (settings.d, settings.c),
    )
    lists = [
        qm_generate(alpha, beta, law, n_per, rng.derive(i))
        for i, (alpha, beta) in enumerate(combos)
    ]
    return SubRunDataset(*lists, settings=settings)


class CsvFormatError(ValueError):
    """A trial CSV violates its format contract."""


#: Rows read, checked or written per step.  It bounds the Python row
#: objects alive at once; larger chunks were no faster and used more memory.
_CHUNK_ROWS = 4_096


def _open_text(source) -> tuple[IO[str], bool]:
    """Return (text stream, owns_handle) for a path, text or byte stream."""
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8")), True
    if isinstance(source, io.TextIOBase):
        return source, False
    if hasattr(source, "read"):  # binary file-like
        return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
    raise TypeError(f"cannot read CSV from {type(source).__name__}")


def _check_header(fieldnames, expected: tuple[str, ...]) -> None:
    got = list(fieldnames or [])
    missing = [c for c in expected if c not in got]
    if missing:
        raise CsvFormatError(f"missing column(s): {', '.join(missing)}")
    extra = [c for c in got if c not in expected]
    if extra:
        raise CsvFormatError(f"unexpected column(s): {', '.join(extra)}")


def _parse_outcome(text: str, column: str) -> int:
    try:
        value = int(text.strip())
    except ValueError:
        raise CsvFormatError(f"invalid outcome {text!r} in column {column!r}") from None
    if value not in (1, -1):
        raise CsvFormatError(f"outcome outside {{+1, -1}}: {text!r} in column {column!r}")
    return value


def _parse_label(text: str, column: str) -> int:
    label = text.strip()
    if label not in PAIR_LABELS:
        raise CsvFormatError(f"unknown setting pair {label!r}")
    return PAIR_LABELS.index(label)


def _parse_index(text: str, column: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise CsvFormatError(f"invalid trial index {text!r}") from None


def _ingest(
    source, rules: dict[str, Callable[[str, str], int]], kept: tuple[str, ...]
) -> list[np.ndarray]:
    """Validate a trial CSV and return its ``kept`` columns as int8 arrays.

    ``rules`` maps each expected column, in the order a row's cells are
    checked, to a rule that parses one cell text or raises CsvFormatError.
    Rows go through in chunks of ``_CHUNK_ROWS``; blank lines are skipped.
    Each distinct text of a kept column is parsed once.  The first bad
    row raises the error of its first failing check, with its 1-based
    data row number.
    """
    stream, owned = _open_text(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        _check_header(header, tuple(rules))
        # A repeated column name resolves to its last position, as in a
        # dict built from the row.
        where = {name: i for i, name in enumerate(header)}
        tables: dict[str, dict[str, int]] = {name: {} for name in kept}
        parts: dict[str, list[np.ndarray]] = {name: [] for name in kept}
        nonblank = filter(None, reader)  # a blank line reads as []
        done = 0
        while rows := list(itertools.islice(nonblank, _CHUNK_ROWS)):
            widths = [len(row) != len(header) for row in rows]
            stop = widths.index(True) if True in widths else len(rows)
            error = "wrong number of fields"
            columns = {}
            for name, rule in rules.items():
                columns[name] = column = [row[where[name]] for row in rows[:stop]]
                # The trial index has distinct texts: its table lasts one chunk.
                table = tables.get(name, {})
                rejected = {}
                for text in set(column).difference(table):
                    try:
                        table[text] = rule(text, name)
                    except CsvFormatError as exc:
                        rejected[text] = str(exc)
                if rejected:
                    stop = [text in rejected for text in column].index(True)
                    error = rejected[column[stop]]
            if stop < len(rows):
                raise CsvFormatError(f"{error} at row {done + stop + 1}")
            for name in kept:
                codes = list(map(tables[name].__getitem__, columns[name]))
                parts[name].append(np.array(codes, dtype=np.int8))
            done += len(rows)
        if done == 0:
            raise CsvFormatError("no trials")
        return [np.concatenate(parts[name]) for name in kept]
    finally:
        if owned:
            stream.close()


def ingest_csv(source) -> SubRunDataset:
    """Read sub-run trials (``pair,outcome_a,outcome_b``).

    Rows are partitioned into the four lists by their setting-pair label
    with row order preserved within each list.  Data rows are numbered
    from 1 in error messages.
    """
    rules = {"pair": _parse_label, "outcome_a": _parse_outcome, "outcome_b": _parse_outcome}
    pair, a, b = _ingest(source, rules, kept=tuple(rules))
    masks = [pair == code for code in range(len(PAIR_LABELS))]
    return SubRunDataset(*(SubRunPairs(OutcomeSequence(a[m]), OutcomeSequence(b[m])) for m in masks))


def ingest_counterfactual_csv(source) -> CounterfactualDataset:
    """Read counterfactual trials (``j,a,d,b,c``), row order preserved."""
    rules = {"j": _parse_index, **{name: _parse_outcome for name in "adbc"}}
    columns = _ingest(source, rules, kept=tuple("adbc"))
    return CounterfactualDataset(*map(OutcomeSequence, columns))


@contextmanager
def _output(dest) -> Iterator[IO[str]]:
    """A text stream to ``dest``, a path or an open stream.

    A new path or a regular file (after following symlinks) is written as
    a temporary file beside it that replaces it only once complete: a
    failed write leaves any earlier file untouched.  Any other existing
    target, such as a FIFO or ``/dev/stdout``, is written in place.
    """
    if not isinstance(dest, (str, Path)):
        yield dest
        return
    path = Path(dest)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8", newline="") as stream:
            yield stream
        return
    path = path.resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as stream:
            yield stream
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


#: Sub-run row text by code 4*label + 2a + b, each outcome read as a bit
#: (+1 -> 1, -1 -> 0).
_SUBRUN_ROWS = tuple(
    f"{label},{a:+d},{b:+d}\n" for label in PAIR_LABELS for a in (-1, 1) for b in (-1, 1)
)
#: Counterfactual row text after the index, by code 8a + 4d + 2b + c.
_COUNTERFACTUAL_CELLS = tuple(
    "".join(f",{v:+d}" for v in outcomes) + "\n"
    for outcomes in itertools.product((-1, 1), repeat=4)
)


def write_subrun_csv(dataset: SubRunDataset, dest) -> None:
    """Write sub-run trials, lists in canonical order ab, ac, db, dc."""
    with _output(dest) as stream:
        stream.write("pair,outcome_a,outcome_b\n")
        for label, (_, pairs) in enumerate(dataset.items()):
            for start in range(0, len(pairs), _CHUNK_ROWS):
                a, b = (s.values[start : start + _CHUNK_ROWS] > 0 for s in (pairs.a, pairs.b))
                codes = 4 * label + 2 * a + b
                stream.write("".join(map(_SUBRUN_ROWS.__getitem__, codes.tolist())))


def write_counterfactual_csv(dataset: CounterfactualDataset, dest) -> None:
    """Write counterfactual trials with 1-based trial indices."""
    seqs = (dataset.a_seq, dataset.d_seq, dataset.b_seq, dataset.c_seq)
    with _output(dest) as stream:
        stream.write("j,a,d,b,c\n")
        for start in range(0, dataset.n, _CHUNK_ROWS):
            a, d, b, c = (s.values[start : start + _CHUNK_ROWS] > 0 for s in seqs)
            cells = map(_COUNTERFACTUAL_CELLS.__getitem__, (8 * a + 4 * d + 2 * b + c).tolist())
            indices = map(str, itertools.count(start + 1))
            stream.write("".join(map(str.__add__, indices, cells)))
