"""Delimiter-separated data files, kernel artifacts and their provenance
lines.

Data files carry a header row naming the schema variables (an explicit
column list can stand in for a missing header).  Ingestion applies row
filters first, then per-variable quantization; a value that already is a
category label passes through unchanged, so transformed artifacts read
back without re-quantization.

Ingestion reads a file's bytes once, as UTF-8 with an optional
byte-order mark (other bytes are refused, naming their offset), and
turns the columns it needs into integer codes into each column's
distinct raw values, by one of two paths chosen from the bytes.  A
*plain* file (no ``"``, no NUL, no CR outside a CRLF pair, every line
with the header's field count and no blank first field) is tokenized
with numpy: the offsets of its delimiter and newline bytes form a
(lines, fields) table, each wanted field is keyed by the 8-byte words
that cover it, and each distinct value is decoded once, so no Python
object is made per field.  The plain path filters first: it encodes and
resolves the filter columns of every line, then encodes the other
wanted columns on the lines the filters keep.  Any other file (quoted
fields, blank or short or long rows, lone CRs) goes through ``csv``,
which streams it in chunks of rows, transposes each chunk into column
tuples and numbers each column's distinct strings; a chunk is checked
row by row (for blank and short rows) only when its shortest row is
short or one of its first fields is blank.  Both paths hand their codes
to one resolver: filters and quantizers run once per distinct value, not
once per row, and records are indexed through the code arrays.  Stream
ids, all distinct, get no codes: the plain path parses the ones that are
ASCII digits in numpy, and ``int`` reads every other one that survives.
Errors are those of a row-by-row pass in file order (see
``read_dataset``).

Writing renders the text of each occurring output cell, the labels of
its (d, x, y) or, in apply mode, its (d, x), once with ``csv`` (so
quoting is the ``csv`` module's); each row is that text, its stream id
and the line end, written in fixed blocks of rows.

Kernel files are CSV with composite category labels, one line per
positive transition, grouped by input cell.

Every artifact starts with one provenance line, ``# fairmap-<kind>``
followed by a ``key=value`` record (``kind`` is ``kernel``, ``data`` or
``report``): ``provenance_line`` renders it and ``provenance_records``
reads it back.  This module only writes and reads the records; which
record an artifact must carry is decided by the command line.

A training sidecar (``training.npz``, beside the kernel) holds the
records ``fit`` or ``sweep`` parsed from the training file, bound to the
SHA-256 of its bytes and to the arguments of that read, so that later
commands need not parse that file again.  Which binding a sidecar
carries is decided by the command line.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
import json
from functools import partial
from itertools import chain, islice, repeat, takewhile
from typing import Optional, Sequence

import numpy as np

from .constants import ROW_ATOL
from .domain import Dataset, Quantizer, Schema
from .errors import (
    EmptyDatasetError,
    FairmapError,
    InvalidParamsError,
    SchemaMismatchError,
    decode_utf8,
)
from .optimizer import TransformKernel

STREAM_COLUMN = "_stream"
_KERNEL_COLUMNS = ("d", "x", "y", "x_hat", "y_hat", "prob")
TRAINING_FILE = "training.npz"
# rows the ``csv`` path parses per step (it sizes that path only; the
# plain path tokenizes the whole file at once): few enough that a chunk's
# row lists and column tuples are freed before the cyclic GC promotes
# them to its oldest generation, whose full collections walk every live
# object.  Medians of 11 reads of a 100k-row compas-shaped file (2-core
# Xeon VM, Python 3.11): 0.23 s at 256 rows, 0.21 s at 512, 0.28 s at
# 1024, 0.30 s at 2048 and 0.35 s at 8192; with the GC off every size
# reads alike
_CHUNK_ROWS = 512
# rows joined per write, so the text held at once stays bounded
_WRITE_ROWS = 8192


def _category_index(variable, raw: str):
    """Label-first resolution: exact category, else the quantizer."""
    raw = raw.strip()
    alphabet = variable.alphabet
    if raw in alphabet.categories:
        return alphabet.categories.index(raw)
    quantizer = variable.quantizer
    if quantizer is None:
        raise SchemaMismatchError(
            f"value {raw!r} is not a category of {alphabet.name!r}"
        )
    label = quantizer.apply(raw)
    if label is Quantizer.DROP:
        return None
    if label not in alphabet.categories:
        raise SchemaMismatchError(
            f"quantizer for {alphabet.name!r} produced unknown label {label!r}"
        )
    return alphabet.categories.index(label)


def provenance_line(kind: str, record: dict) -> str:
    """The provenance line of an artifact of ``kind``: ``# fairmap-<kind>``
    and the ``key=value`` pairs of ``record``, newline included."""
    pairs = " ".join(f"{k}={v}" for k, v in record.items())
    return f"# fairmap-{kind} {pairs}\n"


def _record(line: str, kind: str) -> Optional[dict]:
    """The ``key=value`` record of a ``# fairmap-<kind>`` line; None for
    any other line."""
    magic = f"# fairmap-{kind}"
    if not line.startswith(magic):
        return None
    return dict(part.split("=", 1) for part in line[len(magic):].split() if "=" in part)


def _comments(fh) -> list:
    """The leading ``#`` lines of ``fh``, which is left at the line after."""
    comments = []
    pos = fh.tell()
    line = fh.readline()
    while line.startswith("#"):
        comments.append(line.rstrip("\n"))
        pos = fh.tell()
        line = fh.readline()
    fh.seek(pos)
    return comments


def provenance_records(path: str, kind: str) -> list:
    """The records of the ``# fairmap-<kind>`` lines among a file's leading
    ``#`` lines, in file order: one for an artifact this package wrote,
    none for a file from elsewhere.  Only those lines are read, and bytes
    in them that are not UTF-8 raise ``SchemaMismatchError``."""
    with open(path, "rb") as fh:
        head = b"".join(takewhile(
            lambda line: line.removeprefix(codecs.BOM_UTF8).startswith(b"#"), fh))
    text = io.StringIO(decode_utf8(head, path, SchemaMismatchError).removeprefix("\ufeff"),
                       newline="")
    return [r for r in (_record(c, kind) for c in _comments(text)) if r is not None]


def _outcome_index(variable, raw: str):
    """A blank outcome field marks an apply-mode record (index -1)."""
    return _category_index(variable, raw) if raw.strip() else -1


def _accepting(filt):
    """A filter as a resolution step: 0 for accepted values, None (drop)
    for rejected ones."""
    return lambda raw: 0 if filt.accepts(raw) else None


class _Codes(dict):
    """Raw string -> integer code, numbering unseen strings in order of
    first appearance."""

    def __missing__(self, raw: str) -> int:
        self[raw] = code = len(self)
        return code


def _encode_columns(rows, width: int, cols: Sequence[int], stream_col=None):
    """Stream the non-blank ``rows`` into integer codes, one dict of seen
    raw strings per wanted column.  Stops at the first row shorter than
    ``width``.

    Returns ``({col: (distinct raw values, codes)}, stream, short row or
    None)``; the codes and the ``stream`` of ``stream_col`` (see
    ``_stream_ids``; none of its fields is parsed yet) cover the rows
    before the short row.
    """
    seen = {col: _Codes() for col in cols}
    parts = {col: [] for col in cols}
    stream = []
    short = None
    while short is None:
        chunk = list(islice(rows, _CHUNK_ROWS))
        if not chunk:
            break
        # as many columns as the chunk's shortest row has fields
        columns = list(zip(*chunk))
        if len(columns) < width or not all(map(str.strip, columns[0])):
            # a short row, or a blank first field (maybe a blank row)
            chunk = [r for r in chunk if "".join(r).strip()]
            lengths = list(map(len, chunk))
            if chunk and min(lengths) < width:
                cut = next(i for i, k in enumerate(lengths) if k < width)
                short, chunk = chunk[cut], chunk[:cut]
            if not chunk:
                continue
            columns = list(zip(*chunk))
        for col in cols:
            parts[col].append(np.fromiter(map(seen[col].__getitem__, columns[col]),
                                          dtype=np.int64, count=len(chunk)))
        if stream_col is not None:
            stream.extend(columns[stream_col])
    encoded = {
        col: (list(seen[col]), np.concatenate(parts[col] or [np.empty(0, np.int64)]))
        for col in cols
    }
    return encoded, (np.zeros(len(stream), np.int64), dict(enumerate(stream))), short


# bytes a field can start with and still be blank to ``str.strip``: ASCII
# whitespace, and every non-ASCII byte (some code points are whitespace)
_MAYBE_BLANK = np.array([c >= 128 or chr(c).isspace() for c in range(256)])
# _WORD_MASKS[k] keeps the low k bytes of a little-endian word
_WORD_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_DIGITS = np.full(256, -1, dtype=np.int64)
_DIGITS[ord("0"):ord("9") + 1] = np.arange(10)
# 2^64 / golden ratio: multiplicative (Fibonacci) hashing of 64-bit keys
_HASH = np.uint64(0x9E3779B97F4A7C15)
# at most 2^20 buckets (8 MiB), however long the file
_MAX_BUCKET_BITS = 20


def _compact(keys):
    """The distinct values of ``keys`` (a uint64 array) and each key's
    index among them, in no particular order.

    Each key goes to a bucket: the bucket of its own number when every key
    has one, else a hashed one.  When every key then finds itself in its
    bucket, no bucket is shared by two distinct keys and the used buckets
    are the distinct values; otherwise ``np.unique`` decides.
    """
    bits = min(_MAX_BUCKET_BITS, max(8, (2 * keys.size).bit_length()))
    if keys.max(initial=0) >> np.uint64(bits):
        slot = ((keys * _HASH) >> np.uint64(64 - bits)).astype(np.intp)
    else:
        slot = keys.astype(np.intp)
    table = np.zeros(1 << bits, dtype=np.uint64)
    table[slot] = keys  # which of a shared bucket's keys lands is unspecified
    if np.array_equal(table[slot], keys):
        used = np.zeros(1 << bits, dtype=bool)
        used[slot] = True
        buckets = np.flatnonzero(used)
        rank = np.empty(1 << bits, dtype=np.intp)
        rank[buckets] = np.arange(buckets.size)
        return table[buckets], rank[slot]
    distinct, codes = np.unique(keys, return_inverse=True)
    return distinct, codes.reshape(-1)


def _field_codes(words, starts, ends):
    """The distinct fields among ``data[starts[i]:ends[i]]``, decoded, and
    each field's index among them.

    ``words[j]`` is the little-endian 8-byte word at offset ``j`` of the
    data.  A field is keyed by the words that cover it with the bytes past
    its end set to 0; a plain file holds no NUL, so equal keys are equal
    fields.  Each word is compacted on its own, and then with the codes
    of the words before it.
    """
    lengths = ends - starts
    for k in range(max(1, -(-int(lengths.max(initial=0)) // 8))):
        kept = np.clip(lengths - 8 * k, 0, 8)
        at = starts + 8 * k if k == 0 else np.where(kept > 0, starts + 8 * k, 0)
        word = words[at] & _WORD_MASKS[kept]
        distinct, word_codes = _compact(word)
        if k == 0:
            spelled, codes = distinct[:, None], word_codes
            continue
        radix = np.uint64(distinct.size)
        pairs, codes = _compact(codes.astype(np.uint64) * radix
                                + word_codes.astype(np.uint64))
        before, this = np.divmod(pairs.astype(np.intp), distinct.size)
        spelled = np.column_stack([spelled[before], distinct[this]])
    size = spelled.shape[1] * 8
    blob = spelled.astype("<u8").tobytes()
    return [blob[i:i + size].rstrip(b"\0").decode()
            for i in range(0, len(blob), size)], codes


def _digit_ids(buf, starts, ends):
    """Each field of ``buf`` as an int64, where it is an optional ``-``
    and 1 to 18 ASCII digits (so it fits), and the mask of those fields."""
    minus = buf[starts] == ord("-")
    first = starts + minus
    n_digits = ends - first
    parsed = (n_digits >= 1) & (n_digits <= 18)
    ids = np.zeros(starts.size, dtype=np.int64)
    for j in range(int(n_digits[parsed].max(initial=0))):
        on = parsed & (n_digits > j)
        digit = _DIGITS[buf[np.where(on, first + j, 0)]]
        parsed &= ~on | (digit >= 0)
        ids = np.where(on, ids * 10 + digit, ids)
    return np.where(minus, -ids, ids), parsed


class _PlainFile:
    """A plain file's bytes and, for each line, the offsets of its field
    separators (each delimiter and the line's LF): the ``csv`` module
    would split it into the same fields."""

    def __init__(self, data: bytes, buf: np.ndarray, start: int, table: np.ndarray,
                 delimiter: str):
        self.data, self.buf, self.table, self.delimiter = data, buf, table, delimiter
        # the 8-byte word at each offset of the data (``buf`` has 8 more bytes)
        self.words = np.ndarray((len(data) + 1,), dtype="<u8", buffer=buf, strides=(1,))
        self.line_starts = np.concatenate([[start], table[:-1, -1] + 1]).astype(table.dtype)

    @classmethod
    def parse(cls, data: bytes, delimiter: str, width: Optional[int] = None):
        """The table of ``data``, which is UTF-8, when it is plain with
        ``width`` fields per line (by default, the first line's count),
        else None."""
        sep = delimiter.encode()
        if (len(sep) != 1 or sep in b'"\r\n\0' or b'"' in data or b"\0" in data
                or b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
            return None
        start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
        while data.startswith(b"#", start):  # comment lines
            start = data.find(b"\n", start) + 1
            if not start:
                return None
        if start == len(data):
            return None
        if not data.endswith(b"\n"):
            data += b"\n"
        if width is None:
            width = data.count(sep, start, data.index(b"\n", start)) + 1
        buf = np.frombuffer(data + bytes(8), dtype=np.uint8)
        body = buf[start:len(data)]
        is_sep = body == ord("\n")
        n_lines = np.count_nonzero(is_sep)
        is_sep |= body == sep[0]
        ends = np.flatnonzero(is_sep).astype(np.int32 if len(data) < 2**31 else np.int64)
        del is_sep
        ends += start
        if ends.size != n_lines * width:
            return None
        table = ends.reshape(n_lines, width)
        if not (buf[table[:, -1]] == ord("\n")).all():
            return None
        # csv refuses a field longer than its limit; a line that long goes to csv
        if np.diff(table[:, -1], prepend=start - 1).max() > csv.field_size_limit():
            return None
        plain = cls(data, buf, start, table, delimiter)
        starts, ends = plain._span(0, slice(None))
        suspect = _MAYBE_BLANK[buf[starts]] | (starts == ends)
        if suspect.any():
            values, _ = _field_codes(plain.words, starts[suspect], ends[suspect])
            if not all(map(str.strip, values)):
                return None
        return plain

    def _span(self, col: int, lines):
        """Start and end offsets of field ``col`` of each line in ``lines``
        (a slice or an index array)."""
        table = self.table
        starts = (table[lines, col - 1] + 1 if col else self.line_starts[lines]).astype(np.intp)
        ends = table[lines, col].astype(np.intp)
        if col == table.shape[1] - 1:
            ends -= self.buf[ends - 1] == ord("\r")  # a CRLF's CR
        return starts, ends

    def first_row(self) -> list:
        """The fields of the first line."""
        line = self.data[self.line_starts[0]:self.table[0, -1]]
        return line.rstrip(b"\r").decode().split(self.delimiter)

    def encode(self, lines, cols: Sequence[int], stream_col=None):
        """What ``_encode_columns`` returns for ``lines`` (a slice or an
        index array), short row aside: codes of ``cols``, and the stream of
        ``stream_col`` with its ASCII-digit ids parsed."""
        encoded = {col: _field_codes(self.words, *self._span(col, lines)) for col in cols}
        stream = None
        if stream_col is not None:
            starts, ends = self._span(stream_col, lines)
            ids, parsed = _digit_ids(self.buf, starts, ends)
            other = np.flatnonzero(~parsed)
            stream = (ids, {row: self.data[s:e].decode() for row, s, e in zip(
                other.tolist(), starts[other].tolist(), ends[other].tolist())})
        return encoded, stream


def _resolve(steps, encoded):
    """Run each step's resolver once per distinct raw value that the rows
    still alive at that step carry; a value resolving to None drops its
    rows.

    Returns the mask of surviving rows, each step's (per-value results,
    row codes), and ``(row, column, resolver, raw)`` of the earliest row
    whose value failed to resolve, or None.  Failures are remembered, not
    kept as exception objects, whose tracebacks would pin this frame.
    """
    n_rows = len(encoded[steps[0][0]][1])
    alive = np.ones(n_rows, dtype=bool)
    failure = None
    tables = []
    for col, resolve in steps:
        values, codes = encoded[col]
        table = [None] * len(values)
        failed = np.zeros(len(values), dtype=bool)
        carried = np.bincount(codes[alive], minlength=len(values))
        for code in np.flatnonzero(carried).tolist():
            try:
                table[code] = resolve(values[code])
            except Exception:  # raised again by the caller if its row is first
                failed[code] = True
        bad_rows = alive & failed[codes]
        if bad_rows.any():
            row = int(bad_rows.argmax())
            if failure is None or row < failure[0]:
                failure = (row, col, resolve, values[codes[row]])
        alive &= np.array([r is not None for r in table], dtype=bool)[codes]
        tables.append((table, codes))
    return alive, tables, failure


def _stream_id(raw: str) -> int:
    """A stream id: an integer that fits int64 (``OverflowError`` when it
    does not)."""
    value = int(raw)
    if not -2**63 <= value < 2**63:
        raise OverflowError(f"stream id {raw.strip()} is outside int64")
    return value


def _stream_ids(stream, alive, col, failure):
    """The surviving rows' stream ids, and the earlier of ``failure`` and
    the first surviving row whose field ``_stream_id`` refuses (the ids
    are None then).

    ``stream`` is ``(ids, fields)``: the ids of the rows whose fields are
    already parsed, and ``{row: raw field}``, in row order, of the rows
    whose fields ``_stream_id`` still has to read.
    """
    ids, fields = stream
    survives = alive.tolist()
    rows = [row for row in fields if survives[row]]
    values = []
    for row in rows:
        try:
            values.append(_stream_id(fields[row]))
        except (ValueError, OverflowError):
            if failure is None or row < failure[0]:
                failure = (row, col, _stream_id, fields[row])
            return None, failure
    kept = ids[alive]
    kept[(np.cumsum(alive) - 1)[rows]] = values
    return kept, failure


def _line_number(data: bytes, delimiter: str, index: int) -> int:
    """The line of the file ``data`` on which its non-blank row ``index``
    (0 for the first row after the leading ``#`` lines) ends."""
    text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
    skipped = len(_comments(text))
    reader = csv.reader(text, delimiter=delimiter)
    next(islice((row for row in reader if "".join(row).strip()), index, None))
    return skipped + reader.line_num


def read_dataset(
    path: str,
    schema: Schema,
    delimiter: str = ",",
    has_header: bool = True,
    columns: Optional[Sequence[str]] = None,
    filters: Sequence = (),
) -> Dataset:
    """Load records; rows failing one of ``filters`` or mapping to a
    dropped category are discarded (pass no filters to keep every row of
    pre-filtered data).  A missing outcome column (or blank outcome
    fields) yields apply-mode records.

    The file is read as UTF-8 (other bytes raise ``SchemaMismatchError``
    naming their offset); a leading byte-order mark is skipped, and so
    are leading ``#`` lines, such as the provenance line of a file this
    package wrote.

    Errors are those of resolving the rows one by one in file order:
    filters, then D and X variables in declaration order, then the
    outcome, then the stream id.  A value that fails to resolve raises
    only when a row reaching that step carries it, and the first such
    row (or the first short row, if earlier) decides the exception.  A
    field that cannot be parsed as a number (a stream id, a value under a
    ``bins`` quantizer) raises ``SchemaMismatchError`` naming its column,
    and a stream id outside int64 one naming its line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.isascii():
        decode_utf8(data, path, SchemaMismatchError)
    # a headerless plain file has as many fields per line as ``columns``
    plain = _PlainFile.parse(data, delimiter,
                             None if has_header or columns is None else len(columns))
    if plain is None:
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="")
        _comments(text)
        reader = csv.reader(text, delimiter=delimiter)
        # rows whose fields are all blank are skipped
        first = next((r for r in reader if "".join(r).strip()), None)
    else:
        first = plain.first_row()
    if first is None:
        raise EmptyDatasetError(f"{path} has no rows")
    if has_header:
        header = [h.strip() for h in first]
    else:
        if columns is None:
            raise InvalidParamsError("need explicit columns when there is no header")
        header = [h.strip() for h in columns]
    col_of = {name: i for i, name in enumerate(header)}

    variables = schema.d_vars + schema.x_vars
    needed = [v.name for v in variables]
    for name in needed:
        if name not in col_of:
            raise SchemaMismatchError(f"column {name!r} missing from {path}")
    y_name = schema.y_var.name
    has_y = y_name in col_of
    for f in filters:
        if f.column not in col_of:
            raise SchemaMismatchError(
                f"filter column {f.column!r} missing from {path}"
            )
    stream_col = col_of.get(STREAM_COLUMN)

    # (column, resolver) in the order the row loop applies them
    filter_steps = [(col_of[f.column], _accepting(f)) for f in filters]
    var_steps = [(col_of[v.name], partial(_category_index, v)) for v in variables]
    if has_y:
        var_steps.append((col_of[y_name], partial(_outcome_index, schema.y_var)))
    failure = short = None
    if plain is None:
        steps = filter_steps + var_steps
        rows = reader if has_header else chain([first], reader)
        encoded, stream, short = _encode_columns(
            rows, len(header), sorted({col for col, _ in steps}), stream_col)
    else:
        steps, lines = var_steps, slice(int(has_header), None)
        if filter_steps:
            # filter first, then encode the other columns on the kept lines
            encoded, _ = plain.encode(lines, sorted({col for col, _ in filter_steps}))
            passed, _, failure = _resolve(filter_steps, encoded)
            if failure is not None:  # a later row cannot decide the exception
                passed[failure[0]:] = False
            lines = np.flatnonzero(passed) + lines.start
        encoded, stream = plain.encode(lines, sorted({col for col, _ in steps}), stream_col)

    alive, tables, later = _resolve(steps, encoded)
    stream_ids = None
    if stream_col is not None:
        stream_ids, later = _stream_ids(stream, alive, stream_col, later)
    # a failure among the kept lines comes before the filters' own
    failure = later or failure
    if failure is not None:
        row, col, resolve, raw = failure
        try:
            resolve(raw)  # raises again: the exception of the first failing row
        except FairmapError:
            raise
        except ValueError as exc:  # int() or float() of a malformed field
            raise SchemaMismatchError(
                f"column {header[col]!r}: cannot read {raw!r} ({exc})"
            ) from exc
        except OverflowError as exc:  # a stream id outside int64
            # the row's index among the non-blank rows, header included
            index = (row + has_header if plain is None
                     else int(np.arange(len(plain.table))[lines][row]))
            raise SchemaMismatchError(
                f"{path} line {_line_number(data, delimiter, index)}: {exc}") from exc
    if short is not None:
        raise SchemaMismatchError(f"short row in {path}: {short!r}")
    if not alive.any():
        raise EmptyDatasetError(f"no records of {path} survive ingestion")

    def kept(table, codes):
        return np.array([-1 if r is None else r for r in table],
                        dtype=np.int64)[codes[alive]]

    var_tables = tables[len(steps) - len(var_steps):]
    nd_vars = len(schema.d_vars)
    n_dx = nd_vars + len(schema.x_vars)
    d = np.ravel_multi_index([kept(*t) for t in var_tables[:nd_vars]],
                             schema.d_sizes)
    x = np.ravel_multi_index([kept(*t) for t in var_tables[nd_vars:n_dx]],
                             schema.x_sizes)
    y = kept(*var_tables[n_dx]) if has_y else np.full(d.size, -1)
    return Dataset(schema, d, x, y, stream_ids=stream_ids)


def write_dataset(path: str, dataset: Dataset, delimiter: str = ",",
                  record: Optional[dict] = None) -> None:
    """Write records with protected attributes retained, per-variable
    category labels and each record's stream id in a last ``_stream``
    column; outcomes are omitted entirely for apply-mode data.  The
    provenance line of ``record`` comes first when it is given."""
    schema = dataset.schema
    end = csv.excel.lineterminator

    def text(fields):
        """``fields`` as ``csv`` writes them, each followed by the delimiter."""
        buf = io.StringIO()
        csv.writer(buf, delimiter=delimiter).writerow([*fields, ""])
        return buf.getvalue()[:-len(end)]

    # each record's output cell: its (d, x, y), or its (d, x) in apply mode
    variables = schema.d_vars + schema.x_vars
    sizes, cell = (schema.nd, schema.nx), (dataset.d, dataset.x)
    if dataset.has_outcomes:
        variables += (schema.y_var,)
        sizes, cell = sizes + (schema.ny,), cell + (dataset.y,)
    header = [v.name for v in variables] + [STREAM_COLUMN]
    cells = np.ravel_multi_index(cell, sizes)
    # the text of each occurring cell's labels, indexed by cell
    texts = [None] * int(np.prod(sizes))
    occurring = np.flatnonzero(np.bincount(cells, minlength=len(texts)))
    labels = np.unravel_index(occurring, [len(v.alphabet.categories) for v in variables])
    for at, *idx in zip(occurring.tolist(), *(i.tolist() for i in labels)):
        texts[at] = text(v.alphabet.categories[i] for v, i in zip(variables, idx))
    # csv quotes the stream ids that hold the delimiter
    id_text = str if delimiter not in "-0123456789" else lambda i: text([i])[:-1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if record is not None:
            fh.write(provenance_line("data", record))
        csv.writer(fh, delimiter=delimiter).writerow(header)
        for start in range(0, len(cells), _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            fh.write("".join(chain.from_iterable(zip(
                map(texts.__getitem__, cells[block].tolist()),
                map(id_text, dataset.stream_ids[block].tolist()), repeat(end)))))


def file_sha256(path: str) -> str:
    """Hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, 1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# training sidecar
# ---------------------------------------------------------------------------


def write_training(path: str, dataset: Dataset, binding: dict) -> None:
    """Save the records of ``dataset`` under ``binding``, a JSON mapping
    naming where they came from (see ``read_training``)."""
    np.savez(path, d=dataset.d, x=dataset.x, y=dataset.y,
             stream_ids=dataset.stream_ids,
             binding=np.array(json.dumps(binding, sort_keys=True)))


def read_training(path: str, schema: Schema, binding: dict) -> Optional[Dataset]:
    """The records ``write_training`` saved under exactly ``binding``; None
    when the file is missing, unreadable or saved under another binding."""
    try:  # np.load leaves a file it opened unclosed when its zip is damaged
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as saved:
            if str(saved["binding"]) != json.dumps(binding, sort_keys=True):
                return None
            return Dataset(schema, saved["d"], saved["x"], saved["y"],
                           stream_ids=saved["stream_ids"])
    except Exception:  # the file is only a cache: any failure to read it is a miss
        return None


# ---------------------------------------------------------------------------
# kernel artifacts
# ---------------------------------------------------------------------------


def write_kernel(path: str, kernel: TransformKernel) -> None:
    """Write the kernel with its provenance record as the header line."""
    schema = kernel.schema
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance_line("kernel", kernel.provenance))
        writer = csv.writer(fh)
        writer.writerow(_KERNEL_COLUMNS)
        entries = np.nonzero(kernel.probs)  # C order: by d, x, y, then (x_hat, y_hat)
        d, x, y, j = entries
        d_labels, x_labels, y_labels = (np.array(t, dtype=object) for t in (
            schema.d_labels, schema.x_labels, schema.y_var.alphabet.categories))
        writer.writerows(zip(
            d_labels[d], x_labels[x], y_labels[y], x_labels[j // schema.ny],
            y_labels[j % schema.ny], (f"{p:.17g}" for p in kernel.probs[entries].tolist())))


def _probability(raw: str) -> float:
    prob = float(raw)
    if not 0.0 <= prob < np.inf:  # the row-sum check misses NaN and offset negatives
        raise ValueError("not a finite nonnegative number")
    return prob


def read_kernel(path: str, schema: Schema) -> TransformKernel:
    """Parse a kernel artifact, validating row-stochasticity; the record of
    its provenance line becomes the kernel's provenance.  Labels are looked
    up in the schema's label tables, and the first bad line decides the
    error."""
    with open(path, "rb") as fh:
        text = io.StringIO(decode_utf8(fh.read(), path, SchemaMismatchError), newline=None)
    meta = _record(text.readline(), "kernel")
    if meta is None:
        raise SchemaMismatchError(f"{path} is not a kernel artifact")
    reader = csv.reader(text)
    header = next(reader)
    if [h.strip() for h in header] != list(_KERNEL_COLUMNS):
        raise SchemaMismatchError(f"unexpected kernel header {header!r}")
    nd, nx, ny = schema.nd, schema.nx, schema.ny
    x_index, y_index = schema.x_from_label, schema.y_from_label
    parsers = (schema.d_from_label, x_index, y_index, x_index, y_index, _probability)
    probs = np.zeros((nd, nx, ny, nx * ny))
    listed_on = {}  # file line of each entry
    for row in reader:
        if not row:
            continue
        line_no = reader.line_num + 1  # after the provenance line
        line = f"{path} line {line_no}"
        if len(row) != len(_KERNEL_COLUMNS):
            raise SchemaMismatchError(
                f"{line}: {len(row)} fields, expected {len(_KERNEL_COLUMNS)}")
        fields = []
        for column, parse, raw in zip(_KERNEL_COLUMNS, parsers, row):
            try:
                fields.append(parse(raw))
            except (InvalidParamsError, ValueError) as exc:
                raise SchemaMismatchError(
                    f"{line}, column {column!r}: cannot read {raw!r} ({exc})"
                ) from exc
        d, x, y, xh, yh, prob = fields
        entry = (d, x, y, xh * ny + yh)
        if entry in listed_on:
            raise SchemaMismatchError(
                f"{line}: repeats the transition of line {listed_on[entry]}")
        listed_on[entry] = line_no
        probs[entry] = prob
    sums = probs.sum(axis=3)
    if np.abs(sums - 1.0).max() > ROW_ATOL:
        raise SchemaMismatchError("kernel rows do not sum to 1")
    return TransformKernel(schema, probs, provenance=meta)
