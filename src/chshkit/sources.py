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

import collections
import csv
import io
import itertools
import math
import os
import stat
from contextlib import contextmanager, suppress
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
from .rng import RngSpec, _DRAW_BLOCK, _derived_generators

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
    return _qm_pairs(alpha, beta, law, n, rng.generator().bit_generator)


def _qm_pairs(alpha: Angle, beta: Angle, law: CorrelationLaw, n: int, bits) -> SubRunPairs:
    """``qm_generate``'s pairs, drawn from the bit generator ``bits``."""
    if not _is_count(n) or n < 1:
        raise ValueError(f"trial count must be an integer >= 1, got {n}")
    e = law.pair_correlation(alpha, beta)
    raw = bits.random_raw
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

    List i runs on its own derived stream, ``rng.derive(i)``, so the
    four lists are statistically independent even under one seed.
    """
    arms = settings.angles
    lists = [_qm_pairs(arms[x], arms[y], law, n_per, g.bit_generator)
             for (x, y), g in zip(_PAIR_ARMS, _derived_generators(rng))]
    return SubRunDataset(*lists, settings=settings)


class CsvFormatError(ValueError):
    """A trial CSV violates its format contract."""


#: The bytes an ingest gathers at least for each block, and a write writes
#: at most per step.  The numpy temporaries and text copies of a block are
#: a few times its size, so it bounds the memory either adds to its data;
#: 64 KiB to 256 KiB read fastest, 1 MiB and 4 MiB more slowly.
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

    Only the last block may lack one, and a block cut from a later line
    that no valid row fits.  However the source splits its reads, they are
    gathered to ``_BLOCK_BYTES`` bytes or more, then cut after the last line
    break.  A UTF-8 byte-order mark that starts the input is dropped.
    """
    cap = math.inf  # the header's line has no bound
    def cut() -> Iterator[bytes]:
        pieces, fresh, end = [b""], 0, 0  # the rest of the last cut, then new reads
        while chunk := read(_BLOCK_BYTES):
            if (at := max(chunk.rfind(b"\n"), chunk.rfind(b"\r"))) >= 0:
                end = len(pieces[0]) + fresh + at + 1
            pieces.append(chunk)
            fresh += len(chunk)
            if end and fresh >= _BLOCK_BYTES or not end and len(pieces[0]) + fresh > cap:
                block = b"".join(pieces)
                if len(block) > cap and block.find(b"\n", 0, cap) == block.find(b"\r", 0, cap) == -1:
                    # a first line no valid row fits: cut its first cap bytes, where a character starts
                    end = cap - next((k for k in range(1, 5) if block[cap - k] & 0xC0 != 0x80), 0)
                yield block[:end]
                pieces, fresh, end = [block[end:]], 0, 0
        if rest := b"".join(pieces):
            yield rest

    blocks = cut()
    head = next(blocks, b"").removeprefix(b"\xef\xbb\xbf")
    at = len(head.partition(b"\n")[0].partition(b"\r")[0]) + 1  # after the first LF or CR
    # A field has at most the limit's characters, each of 4 UTF-8 bytes at most, two quotes and
    # a delimiter, and a cut steps back 4 bytes at most; a comma in a quoted name only adds one.
    cap = (head[:at].count(b",") + 1) * (4 * csv.field_size_limit() + 3) + 4
    yield from filter(None, (head[:at], head[at:]))
    yield from blocks


#: Zero bytes after every buffer of fields, so that 16 bytes can be read at any field's start.
_SPARE = bytes(16)


class _Column(NamedTuple):
    """One field of each row: field ``i`` is ``buf[starts[i]:ends[i]]``.

    ``starts`` and ``ends`` are index arrays, or ranges for equal lines.  A
    delimiter byte follows each field, and ``buf`` ends in ``_SPARE``.
    """

    buf: np.ndarray
    starts: np.ndarray | range
    ends: np.ndarray | range

    def text(self, i) -> str:
        return self.buf[self.starts[i] : self.ends[i]].tobytes().decode("utf-8")

    def _heads(self, n: int) -> tuple[np.ndarray, np.ndarray | int]:
        """The first ``n`` little-endian words at each field's start, a row a field, and the widths,
        8n + 1 for any wider: a strided view and one width for equal lines, else a gather."""
        at, ends = self.starts, self.ends
        if isinstance(at, range):
            heads = np.ndarray((len(at), n), "<u8", self.buf, at.start, (at.step, 8))
            return heads, min(ends.start - at.start, 8 * n + 1)
        words = np.ndarray((len(self.buf) - 8 * n + 1, n), "<u8", self.buf, strides=(1, 8))
        return words[at], np.minimum(ends - at, 8 * n + 1)

    def keys(self) -> np.ndarray:
        """Each field's packed key (see :class:`_Table`)."""
        heads, widths = self._heads(1)
        return (heads[:, 0] & _BYTE_MASKS[widths]) | _LENGTH_BYTES[widths]

    def not_plain_digits(self) -> np.ndarray:
        """Rows whose field is other than 1 to 16 ASCII digits."""
        heads, widths = self._heads(2)
        # Byte b is a digit iff neither y = b ^ 0x30 nor y + 0x76 has bit 7; only non-digits carry.
        y = (heads ^ _ZEROS) & _FIELD_MASKS[widths]
        high = (y | (y + _DIGIT_REACH)) & _HIGH_BITS
        return np.flatnonzero(((high[:, 0] | high[:, 1]) != 0) | (widths < 1) | (widths > 16))


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


def _bulk_rows(block: bytes, positions: list[int], n_fields: int) -> tuple | None:
    """The block's rows (see :func:`_columns`) as csv.reader reads them, with
    no lines handed back (``b""``), or None if only csv.reader can: the block
    holds a quote, non-ASCII text or a field over ``csv.field_size_limit()``.

    Quoted fields cannot be split by byte (``a"b`` is a literal quote and
    ``"ab"x`` reads ``abx``), and csv.reader alone decodes UTF-8 and applies
    its field limit.  Equal lines, with their ``n_fields`` fields, commas
    and LF in the first line's columns and no CR, are read at fixed byte
    offsets; any other block is split at every comma and line break.
    """
    if b'"' in block or not block.isascii():
        return None
    if not block.endswith((b"\n", b"\r")):
        block += b"\n"
    buf = np.frombuffer(block + _SPARE, np.uint8)
    data = buf[: len(block)]
    delimiters = (data == ord(",")) | (data == ord("\n"))
    line = block.find(b"\n") + 1
    if b"\r" in block:  # CR ends a line too, and such a block is never read at fixed offsets
        delimiters |= data == ord("\r")
        line = 0
    count = len(block) // line if line > 1 else 0
    cuts = np.flatnonzero(delimiters[:line])
    fixed = (
        count * line == len(block)
        and len(cuts) == n_fields
        and np.count_nonzero(delimiters) == count * n_fields
        and (data.reshape(count, line)[:, cuts] == data[cuts]).all()
    )
    ends = cuts if fixed else np.flatnonzero(delimiters)
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts).max() > csv.field_size_limit():
        return None
    if fixed:  # each line's fields at the first line's offsets
        return count, [_Column(buf, range(starts[k], len(block), line), range(ends[k], len(block), line))
                       for k in positions], None, b""
    last = np.flatnonzero(data[ends] != ord(","))  # each line's last field
    first = np.concatenate(([0], last[:-1] + 1))
    width = last - first + 1
    width[(width == 1) & (starts[last] == ends[last])] = 0  # a blank line
    return *_columns(buf, starts, ends, first, width, positions, n_fields), b""


def _csv_rows(block: bytes, blocks: Iterator[bytes]) -> tuple[list[list[str]], str | None, bytes]:
    """Read the block's lines with csv.reader, as one batch of rows, and
    while the record open at their end goes on, the next blocks' lines to
    that record's end; return the rows, and the lines after that record.

    A quoted field may span lines and blocks.  A line that is not UTF-8,
    or a csv error, ends the batch; it is returned after the rows read.
    """
    lines = collections.deque(block.splitlines(keepends=True))
    count = len(lines)  # the block's lines: a record that ends at or past the last ends the batch

    def feed() -> Iterator[str]:  # once the lines run out, the next block's, split when asked for
        while lines or lines.extend(next(blocks, b"").splitlines(keepends=True)) or lines:
            yield lines.popleft().decode("utf-8")

    reader = csv.reader(feed())
    rows: list[list[str]] = []
    error = None  # the csv.reader failure that ends the batch
    try:
        for row in reader:
            rows.append(row)
            if reader.line_num >= count:
                break
    except UnicodeDecodeError:
        error = "invalid UTF-8"
    except csv.Error as exc:
        error = str(exc)
    return rows, error, b"".join(lines)


def _csv_fields(block: bytes, blocks: Iterator[bytes], positions: list[int], n_fields: int) -> tuple:
    """A :func:`_csv_rows` batch as :func:`_columns` gives it, then the lines
    after it: the error that ends the batch is the failure of the row after
    the rows read, unless one of those has the wrong field count."""
    rows, error, rest = _csv_rows(block, blocks)
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    cells = list(itertools.chain.from_iterable(rows))
    lengths = np.fromiter(map(len, map(str.encode, cells)), np.intp, len(cells))
    ends = np.cumsum(lengths + 1) - 1
    # One text encoded once: bytes.join would hold a buffer of 80 bytes for each cell.
    buf = np.frombuffer((",".join(cells) + ",").encode("utf-8") + _SPARE, np.uint8)
    first = np.cumsum(width) - width
    stop, columns, failure = _columns(buf, ends - lengths, ends, first, width, positions, n_fields)
    return stop, columns, failure or error, rest


#: Code of a cell its column's table does not decide: a text its rule
#: rejects, or one of 8 bytes or more.
_UNDECIDED = -128
#: By a text's width w = 0..9, 9 for any wider: a mask of its first w bytes of a little-endian
#: word, and w as a top byte; texts of 8 bytes or more keep none and share one key.
_BYTE_MASKS = np.array([(1 << 8 * w) - 1 for w in range(8)] + [0, 0], dtype=np.uint64)
_LENGTH_BYTES = np.array([min(w, 8) << 56 for w in range(10)], np.uint64)
#: By a field's width w = 0..17, 17 for any wider: two words that mask its own bytes of 16.
_FIELD_MASKS = np.frombuffer(b"".join(b"\xff" * w + bytes(16 - w) for w in [*range(17), 16]), "(2,)<u8")
_ZEROS, _DIGIT_REACH, _HIGH_BITS = (np.uint64(b * 0x0101010101010101) for b in (0x30, 0x76, 0x80))
#: An empty slot's key, which no text packs to: its length byte is over 8.
_NO_KEY = np.uint64(2**64 - 1)


def _slots(keys: np.ndarray) -> np.ndarray:
    """Each packed key's slot, 0 to 255, as int64 for ``take``."""
    return (keys * np.uint64(0x9E3779B97F4A7C15) >> np.uint64(56)).view(np.int64)


class _Table:
    """One column's codes by text, in 256 slots; each text is parsed once a block at most.

    A text of up to 7 bytes is found by a packed key (its bytes, with its
    length in the top byte), in bulk.  Its slot is the top byte of the key
    times 2**64 over the golden ratio: multiplicative hashing (Knuth, TAOCP
    vol. 3, 6.4).  All longer texts share one key, placed from the start as
    undecided.  A slot holds the first key placed in it and never changes,
    so a text whose slot holds another is parsed again in each block with it.
    """

    def __init__(self, name: str, rule: Callable[[str, str], int]) -> None:
        self.name, self.rule = name, rule
        self.keys = np.full(256, _NO_KEY)
        self.codes = np.full(256, _UNDECIDED, np.int8)
        self.keys[_slots(_LENGTH_BYTES[8:9])] = _LENGTH_BYTES[8]  # the long key

    def _parse(self, text: str) -> int:
        try:
            return self.rule(text, self.name)
        except CsvFormatError:
            return _UNDECIDED

    def codes_of(self, column: _Column) -> np.ndarray:
        """Each field's code, ``_UNDECIDED`` where its rule rejects its text or the text is long."""
        keys = column.keys()
        slots = _slots(keys)
        codes = self.codes.take(slots)
        new = np.flatnonzero(self.keys.take(slots) != keys)
        if len(new):
            fresh, first, inverse = np.unique(keys[new], return_index=True, return_inverse=True)
            found = [self._parse(column.text(i)) for i in new[first].tolist()]
            codes[new] = np.array(found, np.int8)[inverse]
            for key, slot, code in zip(fresh.tolist(), slots[new[first]].tolist(), found):
                if self.keys[slot] == _NO_KEY:  # a held slot keeps its key
                    self.keys[slot], self.codes[slot] = key, code
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
#: A kind's first column names it in a header, tried in this order.
_RULES = {
    "subruns": {"pair": _parse_label, "outcome_a": _parse_outcome, "outcome_b": _parse_outcome},
    "counterfactual": {"j": _parse_index, **dict.fromkeys("adbc", _parse_outcome)},
}


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
        rows, error, block = _csv_rows(next(blocks, b""), blocks)
        if error:
            raise CsvFormatError(f"{error} in the header")
        header = rows[0] if rows else []
        if not kind:  # names are stripped to pick the kind, and only for that
            names = {name.strip() for name in header}
            kind = next((k for k, columns in _RULES.items() if next(iter(columns)) in names), None)
            if not kind:
                raise CsvFormatError("unrecognized trial CSV header: no 'pair' or 'j' column")
        rules = _RULES[kind]
        if missing := [name for name in rules if name not in header]:
            raise CsvFormatError(f"missing column(s): {', '.join(missing)}")
        if extra := [name for name in header if name not in rules]:
            # Eight names at most, each within the field limit: the message is bounded.
            more = f" and {len(extra) - 8} more" if len(extra) > 8 else ""
            raise CsvFormatError(f"unexpected column(s): {', '.join(extra[:8])}{more}")
        # A repeated column name resolves to its last position, as in a
        # dict built from the row.
        where = {name: i for i, name in enumerate(header)}
        positions = [where[name] for name in rules]
        # A trial index has one distinct text per row: no table, and plain
        # digit strings, valid for int(), are accepted in bulk.
        tables = {name: _Table(name, rule) for name, rule in rules.items() if rule is not _parse_index}
        parts = {name: bytearray() for name in tables}
        done, n = 0, len(header)
        while block := block or next(blocks, b""):
            # csv.reader reads a block that _bulk_rows cannot, to the end of the record open at its
            # end; the lines after that record are read next, in bulk wherever they can be.
            stop, columns, failure, block = _bulk_rows(block, positions, n) or _csv_fields(
                block, blocks, positions, n
            )
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

    The file open on fd 1 or 2, as ``/dev/stdout`` names it, is written
    through that fd, at its offset; a closed fd matches no file.  A new
    path or another regular file (after following symlinks) is written as
    a temporary file beside it that replaces it only once complete, with
    the replaced file's permission bits: a failed write leaves any earlier
    file untouched.  Any other existing target, such as a FIFO, is
    written in place.
    """
    if not isinstance(dest, (str, Path)):
        yield dest
        return
    path = Path(dest)
    try:
        target = path.stat()
    except OSError:  # no such path
        target = None
    fd = None
    for open_fd in (1, 2) if target is not None else ():
        with suppress(OSError):  # a closed fd
            if fd is None and os.path.samestat(target, os.fstat(open_fd)):
                fd = open_fd
    if fd is not None or target is not None and not stat.S_ISREG(target.st_mode):
        with open(path if fd is None else fd, "w", encoding="utf-8", newline="",
                  closefd=fd is None) as stream:
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
            if target is not None:  # before any data is written
                os.chmod(stream.fileno(), stat.S_IMODE(target.st_mode))
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
