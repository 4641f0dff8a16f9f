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
from enum import Enum
from pathlib import Path
from typing import IO, Callable, Iterator, NamedTuple

import numpy as np

from .core import (
    Angle,
    CounterfactualDataset,
    OutcomeSequence,
    PAIR_LABELS,
    SettingsQuad,
    SubRunDataset,
    SubRunPairs,
    _PAIR_ARMS,
    _is_count,
)
from .rng import RngSpec, _DRAW_BLOCK

__all__ = [
    "CorrelationLaw",
    "SIGN_MALUS",
    "PHOTON_OPTIMAL_QUAD",
    "SPIN_OPTIMAL_QUAD",
    "lhv_generate",
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


def SIGN_MALUS(theta: float, lam: np.ndarray) -> np.ndarray:
    """The sign-Malus response: +1 wherever the Malus intensity factor
    cos 2(theta - lambda) is >= 0, else -1."""
    return (np.cos(2.0 * (theta - lam)) >= 0.0).view(np.int8) * 2 - 1


def lhv_generate(
    response: Callable[[float, np.ndarray], np.ndarray], settings: SettingsQuad, n: int, rng: RngSpec
) -> CounterfactualDataset:
    """Draw n trials from a local deterministic response rule, lambda
    uniform on [0, pi) per trial.

    ``response`` is A(theta, lambda): it maps (analyzer angle in radians,
    array of hidden variables in [0, pi)) to an array of +1/-1 outcomes.
    Locality is structural: the rule sees only its own arm's angle and
    the shared lambda.  All four sequences come from the same lambda
    array -- this sharing is what makes the dataset counterfactual.
    ``response`` must act elementwise: it is called once per block of at
    most 2**15 lambdas, and each result is checked like any caller data.
    """
    if not _is_count(n) or n < 1:
        raise ValueError(f"trial count must be an integer >= 1, got {n}")
    g = rng.generator()
    table = np.empty((4, n), np.int8)
    for start in range(0, n, _DRAW_BLOCK):
        block = table[:, start:start + _DRAW_BLOCK]
        lam = g.uniform(0.0, math.pi, size=block.shape[1])
        arms = [OutcomeSequence(response(x.radians, lam)).values for x in settings.angles]
        np.stack(arms, out=block)  # no broadcast: each arm gives one outcome per lambda
    return CounterfactualDataset(*map(OutcomeSequence._of, table), settings=settings)


def qm_generate(
    alpha: Angle, beta: Angle, law: CorrelationLaw, n: int, rng: RngSpec
) -> SubRunPairs:
    """Sample n outcome pairs from P(s,t) = (1 + s*t*E(alpha,beta)) / 4.

    Both marginals are uniform by construction; the correlation enters
    only through the probability that the two arms agree.
    """
    if not _is_count(n) or n < 1:
        raise ValueError(f"trial count must be an integer >= 1, got {n}")
    e = law.pair_correlation(alpha, beta)
    raw = rng.generator().bit_generator.random_raw
    # The signs g.integers(0, 2, n, np.int8) draws: it takes the bytes of
    # ceil(n / 8) words in little-endian order, and for a range of 2
    # Lemire's rule never rejects and keeps each byte's top bit.
    s = (raw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n] >> 7).view(np.int8) * 2 - 1
    # t is s times +1 where the arms agree and -1 where they do not.  They
    # agree where g.random(n) < p, and that double is (w >> 11) * 2**-53:
    # p * 2**53 is exact, so the test is (w >> 11) < ceil(p * 2**53).
    words = raw(n)
    words >>= 11  # in place: a second array of n words cost as much as the draw
    t = s * ((words < math.ceil((1.0 + e) / 2.0 * 2**53)).view(np.int8) * 2 - 1)
    return SubRunPairs(OutcomeSequence._of(s), OutcomeSequence._of(t))


def generate_subruns(
    settings: SettingsQuad, law: CorrelationLaw, n_per: int, rng: RngSpec
) -> SubRunDataset:
    """Four independent fixed-setting experiments of n_per trials each.

    Each setting pair runs on its own derived stream, so the four lists
    are statistically independent even under one seed.
    """
    arms = settings.angles
    lists = [qm_generate(arms[x], arms[y], law, n_per, rng.derive(i))
             for i, (x, y) in enumerate(_PAIR_ARMS)]
    return SubRunDataset(*lists, settings=settings)


class CsvFormatError(ValueError):
    """A trial CSV violates its format contract."""


#: Bytes read per step of an ingest, and at most written per step of a
#: write.  The numpy temporaries and text copies of a block are a few times
#: its size, so it bounds the memory either adds to its data; 64 KiB to
#: 256 KiB read fastest, 1 MiB and 4 MiB more slowly.
_BLOCK_BYTES = 1 << 17


@contextmanager
def _reader(source) -> Iterator[Callable[[int], bytes]]:
    """A ``read(size) -> bytes`` for a path, bytes, or a text or binary stream."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as stream:
            yield stream.read
    elif isinstance(source, (bytes, bytearray)):
        yield io.BytesIO(source).read
    elif isinstance(source, io.TextIOBase):
        yield lambda size: source.read(size).encode("utf-8", "surrogatepass")
    elif hasattr(source, "read"):  # binary file-like
        yield source.read
    else:
        raise TypeError(f"cannot read CSV from {type(source).__name__}")


def _blocks(read: Callable[[int], bytes]) -> Iterator[bytes]:
    """The input's first line, which holds the header, as a block of its
    own; then blocks that end after their last line break.

    Only the last block may lack one.  A line longer than a read is
    gathered over several reads.  A UTF-8 byte-order mark that starts the
    first read is UTF-8's signature, not text, and is dropped.
    """
    pieces: list[bytes] = []
    chunk, first = read(_BLOCK_BYTES).removeprefix(b"\xef\xbb\xbf"), True
    while chunk:
        if first:  # cut after the first LF or CR
            lf, cr = chunk.find(b"\n"), chunk.find(b"\r")
            cut = (lf if cr < 0 or 0 <= lf < cr else cr) + 1
        else:
            cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r")) + 1
        if cut:
            yield b"".join([*pieces, chunk[:cut]])
            pieces, chunk = [], chunk[cut:]
            if first:  # the rest of this read is cut at its last line break
                chunk, first = chunk or read(_BLOCK_BYTES), False
                continue
        pieces.append(chunk)
        chunk = read(_BLOCK_BYTES)
    if rest := b"".join(pieces):
        yield rest


class _Column(NamedTuple):
    """One field of each row: field ``i`` is ``buf[starts[i]:ends[i]]``.

    A delimiter byte follows each field, and ``buf`` ends in 8 spare bytes
    so that 8 bytes can be read at any field start.
    """

    buf: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def text(self, i) -> str:
        return self.buf[self.starts[i] : self.ends[i]].tobytes().decode("utf-8")

    def keys(self) -> np.ndarray:
        """Each field's packed key (see :class:`_Table`)."""
        lengths = np.minimum(self.ends - self.starts, 8).astype(np.uint64)
        words = np.ndarray(len(self.buf) - 7, "<u8", self.buf, strides=(1,))
        return (words[self.starts] & _BYTE_MASKS[lengths]) | (lengths << np.uint64(56))

    def not_plain_digits(self) -> np.ndarray:
        """Rows whose field is other than 1 to 18 ASCII digits."""
        # A delimiter follows every field, so the search never runs off the end.
        nondigit = np.flatnonzero(self.buf[:-8] - np.uint8(ord("0")) > 9)
        lengths = self.ends - self.starts
        digits = nondigit[np.searchsorted(nondigit, self.starts)] == self.ends
        return np.flatnonzero(~(digits & (lengths >= 1) & (lengths <= 18)))


class _FixedColumn(NamedTuple):
    """One field of each of ``count`` lines of ``line`` bytes.

    Field ``i`` is bytes ``[start, end)`` of line ``i`` of ``buf``, at most
    7 of them; ``buf`` ends in 8 spare bytes.
    """

    buf: np.ndarray
    line: int
    start: int
    end: int
    count: int

    def text(self, i) -> str:
        at = i * self.line
        return self.buf[at + self.start : at + self.end].tobytes().decode("utf-8")

    def keys(self) -> np.ndarray:
        width = self.end - self.start
        words = np.ndarray(self.count, "<u8", self.buf, self.start, (self.line,))
        return (words & _BYTE_MASKS[width]) | np.uint64(width << 56)

    def not_plain_digits(self) -> np.ndarray:
        if self.end == self.start:  # every field is empty
            return np.arange(self.count)
        lines = self.buf[: self.count * self.line].reshape(self.count, self.line)
        field = lines[:, self.start : self.end]
        return np.flatnonzero((field - np.uint8(ord("0")) > 9).any(axis=1))


def _fixed_lines(block: bytes, positions: list[int], n_fields: int) -> tuple | None:
    """The block's rows (see :func:`_columns`) by byte columns, if it is equal lines; else None.

    Every line of the block, which is ASCII with no quote, must have the
    first line's length and its ``n_fields`` fields, commas and line break
    in the same columns, with no CR and no field over 7 bytes or
    ``csv.field_size_limit()``.  Such a line reads the same split by byte
    columns as at its delimiters.
    """
    line = block.find(b"\n") + 1
    if line < 2 or len(block) % line or b"\r" in block:
        return None
    count = len(block) // line
    buf = np.frombuffer(block + bytes(8), np.uint8)
    lines = buf[:-8].reshape(count, line)
    delimiters = (lines == ord(",")) | (lines == ord("\n"))
    cuts = np.flatnonzero(delimiters[0])
    starts = np.concatenate(([0], cuts[:-1] + 1))
    if (
        len(cuts) != n_fields
        or (cuts - starts).max() > min(7, csv.field_size_limit())
        or np.count_nonzero(delimiters) != count * len(cuts)
        or not (lines[:, cuts] == lines[0, cuts]).all()
    ):
        return None
    starts, cuts = starts.tolist(), cuts.tolist()
    return count, [_FixedColumn(buf, line, starts[k], cuts[k], count) for k in positions], None


def _columns(buf, starts, ends, first, width, positions: list[int], n_fields: int) -> tuple:
    """Rows of fields as ``(stop, columns, failure)``: the count of rows up
    to the first without ``n_fields`` fields, blank lines skipped; the
    fields at ``positions`` of those rows; and the failure of the row
    after them, or None if there is none.

    Field ``i`` is ``buf[starts[i]:ends[i]]``, laid out as for
    :class:`_Column`; row ``r`` has ``width[r]`` fields from field
    ``first[r]`` on, and a blank line has width 0.
    """
    nonblank = width > 0
    first = first[nonblank]
    wrong = np.flatnonzero(width[nonblank] != n_fields)
    stop = int(wrong[0]) if len(wrong) else len(first)
    columns = [_Column(buf, starts[i], ends[i]) for i in (first[:stop] + k for k in positions)]
    return stop, columns, "wrong number of fields" if len(wrong) else None


def _split_block(block: bytes, positions: list[int], n_fields: int) -> tuple | None:
    """Split an ASCII block that holds no quote at every comma and line break.

    This is what csv.reader does with such a block whose fields are within
    ``csv.field_size_limit()``.  A field over it gives None.
    """
    if not block.endswith((b"\n", b"\r")):
        block += b"\n"
    buf = np.frombuffer(block + bytes(8), np.uint8)
    data = buf[:-8]
    breaks = (data == ord("\n")) | (data == ord("\r"))
    ends = np.flatnonzero(breaks | (data == ord(",")))
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts).max() > csv.field_size_limit():
        return None
    last = np.flatnonzero(breaks[ends])  # each line's last field
    first = np.concatenate(([0], last[:-1] + 1))
    width = last - first + 1
    width[(width == 1) & (starts[last] == ends[last])] = 0  # a blank line
    return _columns(buf, starts, ends, first, width, positions, n_fields)


def _csv_rows(blocks: Iterator[bytes]) -> tuple[list[list[str]], str | None]:
    """Read with csv.reader, as one batch of rows, the first block and each
    further block that a record still open at a block's end runs into.

    A quoted field may span lines and blocks.  A line that is not UTF-8,
    or a csv error, ends the batch; it is returned after the rows read.
    """
    totals: list[int] = []  # lines handed to the reader up to each block's end

    def lines() -> Iterator[str]:
        for block in blocks:
            block_lines = block.splitlines(keepends=True)
            totals.append((totals[-1] if totals else 0) + len(block_lines))
            for line in block_lines:
                yield line.decode("utf-8")

    reader = csv.reader(lines())
    rows: list[list[str]] = []
    error = None  # the csv.reader failure that ends the batch
    try:
        for row in reader:
            rows.append(row)
            if reader.line_num == totals[-1]:
                break
    except UnicodeDecodeError:
        error = "invalid UTF-8"
    except csv.Error as exc:
        error = str(exc)
    return rows, error


def _csv_fields(blocks: Iterator[bytes], positions: list[int], n_fields: int) -> tuple:
    """A :func:`_csv_rows` batch as :func:`_columns` gives it: the error that
    ends the batch is the failure of the row after the rows read, unless
    one of those has the wrong field count."""
    rows, error = _csv_rows(blocks)
    cells = [cell.encode("utf-8") for row in rows for cell in row]
    lengths = np.fromiter(map(len, cells), np.intp, len(cells))
    ends = np.cumsum(lengths + 1) - 1
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    buf = np.frombuffer(b"".join(cell + b"," for cell in cells) + bytes(8), np.uint8)
    first = np.cumsum(width) - width
    stop, columns, failure = _columns(buf, ends - lengths, ends, first, width, positions, n_fields)
    return stop, columns, failure or error


def _tokenize(blocks: Iterator[bytes], positions: list[int], n_fields: int) -> Iterator[tuple]:
    """Each block's data rows, as :func:`_columns` gives them.

    A block of equal lines is read by byte columns, any other split at its
    delimiters.  Quoted fields cannot be split by byte (``a"b`` is a
    literal quote and ``"ab"x`` reads ``abx``), and csv.reader alone
    decodes UTF-8 and applies its field limit, so it reads a block that
    holds a quote, non-ASCII text or a field over the limit, and the
    blocks an open record runs into.  The block after those is split in
    bulk again.
    """
    for block in blocks:
        if b'"' not in block and block.isascii():
            rows = _fixed_lines(block, positions, n_fields) or _split_block(block, positions, n_fields)
            if rows is not None:
                yield rows
                continue
        yield _csv_fields(itertools.chain([block], blocks), positions, n_fields)


#: Code of a cell its column's table does not decide: a text its rule rejects,
#: one of 8 bytes or more, or one first seen after the table was full.
_UNDECIDED = -128
#: Masks that keep the first n bytes of a little-endian word, n = 0..8; a
#: text of 8 bytes or more keeps none, so all such texts share one key.
_BYTE_MASKS = np.array([(1 << 8 * n) - 1 for n in range(8)] + [0], dtype=np.uint64)
_LONG_KEY = np.uint64(8 << 56)
#: Most keys a table holds; a lookup counts, at rows x keys.
_TABLE_KEYS = 8


class _Table:
    """One column's codes by text, for at most ``_TABLE_KEYS`` texts; each is parsed once.

    A text of up to 7 bytes is found by a packed key (its bytes, with its
    length in the top byte), in bulk.  All longer texts share one key, held
    from the start as undecided.
    """

    def __init__(self, name: str, rule: Callable[[str, str], int]) -> None:
        self.name, self.rule = name, rule
        self.keys = np.array([_LONG_KEY])
        self.codes = np.array([_UNDECIDED], dtype=np.int8)

    def _parse(self, text: str) -> int:
        try:
            return self.rule(text, self.name)
        except CsvFormatError:
            return _UNDECIDED

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        """Each key's index in the table; a key not in it gets one of another key.

        Counting the table keys each key reaches gives a binary search's
        index at about half its cost.
        """
        at = np.zeros(len(keys), np.intp)
        for key in self.keys[1:]:
            at += keys >= key
        return at

    def codes_of(self, column: _Column | _FixedColumn) -> np.ndarray:
        """Each field's code, ``_UNDECIDED`` where the table does not hold its text."""
        keys = column.keys()
        at = self._slots(keys)
        new = self.keys[at] != keys
        if not new.any():
            return self.codes[at]
        if (room := _TABLE_KEYS - len(self.keys)) > 0:
            fresh, where = np.unique(keys[new], return_index=True)
            texts = map(column.text, np.flatnonzero(new)[where[:room]])
            keys_all = np.concatenate((self.keys, fresh[:room]))
            codes_all = np.concatenate((self.codes, [self._parse(t) for t in texts]))
            order = np.argsort(keys_all)
            self.keys, self.codes = keys_all[order], codes_all[order].astype(np.int8)
            at = self._slots(keys)
            new = self.keys[at] != keys
        codes = self.codes[at]
        codes[new] = _UNDECIDED
        return codes


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


#: Each trial CSV kind's columns, in the order a row's cells are checked,
#: each with the rule that parses one cell text or raises CsvFormatError.
_RULES = {
    "subruns": {"pair": _parse_label, "outcome_a": _parse_outcome, "outcome_b": _parse_outcome},
    "counterfactual": {"j": _parse_index, **dict.fromkeys("adbc", _parse_outcome)},
}


def _csv_kind(header: list[str]) -> str:
    """The kind of trial CSV whose header row is ``header``."""
    names = {name.strip() for name in header}
    if "pair" in names:
        return "subruns"
    if "j" in names:
        return "counterfactual"
    raise CsvFormatError("unrecognized trial CSV header: no 'pair' or 'j' column")


def _ingest(source, kind: str | None) -> tuple[str, list[np.ndarray]]:
    """Validate a trial CSV; return its kind and its outcome columns.

    Without a ``kind``, the header's column names decide it.  The columns
    are int8 arrays: ``pair``, ``outcome_a``, ``outcome_b`` (the pair as
    its index in PAIR_LABELS), or ``a``, ``d``, ``b``, ``c``.  The header
    is row 0 of a csv.reader batch over the input's first line; an empty
    input, or a blank first line, has an empty header.  The data rows are
    then read in blocks, and blank lines among them skipped.  The first
    bad row raises the error of its first failing check (a line csv.reader
    rejects, then the field count, then each column), with its 1-based
    data row number.
    """
    with _reader(source) as read:
        blocks = _blocks(read)
        rows, error = _csv_rows(blocks)
        if error and not rows:
            raise CsvFormatError(f"{error} in the header")
        # A header that runs past its line holds a line break in a name, which
        # the column checks reject: no row the batch read after it is data.
        header = rows[0] if rows else []
        kind = kind or _csv_kind(header)
        rules = _RULES[kind]
        if missing := [name for name in rules if name not in header]:
            raise CsvFormatError(f"missing column(s): {', '.join(missing)}")
        if extra := [name for name in header if name not in rules]:
            raise CsvFormatError(f"unexpected column(s): {', '.join(extra)}")
        # A repeated column name resolves to its last position, as in a
        # dict built from the row.
        where = {name: i for i, name in enumerate(header)}
        positions = [where[name] for name in rules]
        # A trial index has one distinct text per row: no table, and plain
        # digit strings, valid for int(), are accepted in bulk.
        tables = {name: _Table(name, rule) for name, rule in rules.items() if rule is not _parse_index}
        parts = {name: bytearray() for name in tables}
        done = 0
        for stop, columns, failure in _tokenize(blocks, positions, len(header)):
            for (name, rule), column in zip(rules.items(), columns):
                if name in tables:
                    found = tables[name].codes_of(column)
                    suspects = np.flatnonzero(found == _UNDECIDED)
                else:
                    found, suspects = None, column.not_plain_digits()
                # The rule decides each suspect; only rows before an earlier column's failure count.
                for i in suspects[suspects < stop].tolist():
                    try:
                        code = rule(column.text(i), name)
                    except CsvFormatError as exc:
                        stop, failure = i, str(exc)
                        break
                    if found is not None:  # a trial index keeps no code
                        found[i] = code
                if found is not None:  # a failure below discards every part
                    parts[name].extend(found)
            if failure:
                raise CsvFormatError(f"{failure} at row {done + stop + 1}")
            done += stop
    if done == 0:
        raise CsvFormatError("no trials")
    return kind, [np.frombuffer(parts[name], np.int8) for name in tables]


def _read_trials(source, kind: str | None = None) -> tuple[str, SubRunDataset | CounterfactualDataset]:
    """A trial CSV's kind and dataset; without a ``kind``, its header decides."""
    kind, columns = _ingest(source, kind)
    # Each column is fresh int8 codes that its rules checked.
    if kind == "counterfactual":
        return kind, CounterfactualDataset(*map(OutcomeSequence._of, columns))
    pair, a, b = columns
    return kind, SubRunDataset._partition(pair, [(a, b)] * len(PAIR_LABELS))


def ingest_csv(source) -> SubRunDataset:
    """Read sub-run trials (``pair,outcome_a,outcome_b``).

    Rows are partitioned into the four lists by their setting-pair label
    with row order preserved within each list.  Data rows are numbered
    from 1 in error messages.
    """
    return _read_trials(source, "subruns")[1]


def ingest_counterfactual_csv(source) -> CounterfactualDataset:
    """Read counterfactual trials (``j,a,d,b,c``), row order preserved."""
    return _read_trials(source, "counterfactual")[1]


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
        try:
            stream = open(tmp, "w", encoding="utf-8", newline="")
        except OSError as exc:  # name the path as given, not the temporary file
            raise type(exc)(exc.errno, exc.strerror, str(dest)) from None
        with stream:
            yield stream
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _byte_table(rows: list[str]) -> np.ndarray:
    """Equal-length ASCII rows as a (rows, length) uint8 table."""
    return np.frombuffer("".join(rows).encode("ascii"), np.uint8).reshape(len(rows), -1)


#: Sub-run row bytes by code 4*label + 2a + b, each outcome read as a bit
#: (+1 -> 1, -1 -> 0).
_SUBRUN_ROWS = _byte_table(
    [f"{label},{a:+d},{b:+d}\n" for label in PAIR_LABELS for a in (-1, 1) for b in (-1, 1)]
)
#: Counterfactual row bytes after the index, by code 8a + 4d + 2b + c.
_COUNTERFACTUAL_CELLS = _byte_table(
    ["".join(f",{v:+d}" for v in outcomes) + "\n" for outcomes in itertools.product((-1, 1), repeat=4)]
)


def _codes(prefix: int, seqs: tuple[OutcomeSequence, ...], rows: slice) -> np.ndarray:
    """Each row's code in a byte table: ``prefix``, then one bit per sequence, 1 for +1."""
    bits = [s.values[rows] > 0 for s in seqs]
    codes = np.full(len(bits[0]), prefix, np.uint8)
    for bit in bits:
        codes <<= 1
        codes |= bit
    return codes


def write_subrun_csv(dataset: SubRunDataset, dest) -> None:
    """Write sub-run trials, lists in canonical order ab, ac, db, dc."""
    step = _BLOCK_BYTES // _SUBRUN_ROWS.shape[1]
    with _output(dest) as stream:
        stream.write(",".join(_RULES["subruns"]) + "\n")
        for label, pairs in enumerate(dataset.lists):
            for start in range(0, len(pairs), step):
                codes = _codes(label, (pairs.a, pairs.b), slice(start, start + step))
                stream.write(_SUBRUN_ROWS.take(codes, axis=0).tobytes().decode("ascii"))


def _counterfactual_text(codes: np.ndarray, first: int) -> str:
    """The rows of ``codes``, indexed from ``first``, as one text.

    The rows of each index width are one table: digit columns, then the
    cells gathered by code.
    """
    end, pieces = first + len(codes), []
    lo = first
    while lo < end:
        digits = len(str(lo))
        hi = min(end, 10**digits)
        rows = np.empty((hi - lo, digits + _COUNTERFACTUAL_CELLS.shape[1]), np.uint8)
        rows[:, digits:] = _COUNTERFACTUAL_CELLS.take(codes[lo - first : hi - first], axis=0)
        index = np.arange(lo, hi, dtype=np.min_scalar_type(hi))
        for k in reversed(range(digits)):
            rows[:, k] = index % 10 + ord("0")
            index //= 10
        pieces.append(rows.tobytes())
        lo = hi
    return b"".join(pieces).decode("ascii")


def write_counterfactual_csv(dataset: CounterfactualDataset, dest) -> None:
    """Write counterfactual trials with 1-based trial indices."""
    step = _BLOCK_BYTES // (len(str(dataset.n)) + _COUNTERFACTUAL_CELLS.shape[1])
    with _output(dest) as stream:
        stream.write(",".join(_RULES["counterfactual"]) + "\n")
        for start in range(0, dataset.n, step):
            codes = _codes(0, dataset.sequences, slice(start, start + step))
            stream.write(_counterfactual_text(codes, start + 1))
