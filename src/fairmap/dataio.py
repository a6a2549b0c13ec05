"""Delimiter-separated data files, kernel artifacts and their provenance
lines.

Data files carry a header row naming the schema variables (an explicit
column list can stand in for a missing header).  Ingestion applies row
filters first, then per-variable quantization; a value that already is a
category label passes through unchanged, so transformed artifacts read
back without re-quantization.

Ingestion streams the file once in chunks of rows, transposes each
chunk into column tuples and keeps only the columns it needs, as integer
codes into each column's distinct raw values.  A chunk is checked row by
row (for blank and short rows) only when its shortest row is short or
one of its first fields is blank.  Filters and quantizers then run once
per distinct value, not once per row, and records are indexed through
the code arrays; stream ids, all distinct, are kept as raw fields and
parsed once per surviving row.  Errors are still those of a row-by-row
pass in file order (see ``read_dataset``).

Writing renders each occurring D cell, X cell and outcome label once
with ``csv`` (so quoting is the ``csv`` module's), and each row is the
join of those texts and its stream id, written in fixed blocks of rows.

Kernel files are CSV with composite category labels, one line per
positive transition, grouped by input cell.

Every artifact starts with one provenance line, ``# fairmap-<kind>``
followed by a ``key=value`` record (``kind`` is ``kernel``, ``data`` or
``report``): ``provenance_line`` renders it and ``provenance_records``
reads it back.  This module only writes and reads the records; which
record an artifact must carry is decided by the command line.

A training sidecar (``training.npz``, beside the kernel) holds the
records ``fit`` was given, bound to the SHA-256 of the file they were
read from and to the reading configuration, so that later commands need
not parse that file again.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import zipfile
from functools import partial
from itertools import chain, compress, islice
from typing import Optional, Sequence

import numpy as np

from .constants import ROW_ATOL
from .domain import Dataset, Quantizer, Schema
from .errors import (
    EmptyDatasetError,
    FairmapError,
    InvalidParamsError,
    SchemaMismatchError,
)
from .optimizer import TransformKernel

STREAM_COLUMN = "_stream"
_KERNEL_COLUMNS = ("d", "x", "y", "x_hat", "y_hat", "prob")
TRAINING_FILE = "training.npz"
# rows parsed per step: few enough that a chunk's row lists and column
# tuples are freed before the cyclic GC promotes them to its oldest
# generation, whose full collections walk every live object.  Medians of
# 11 reads of a 100k-row compas-shaped file (2-core Xeon VM, Python 3.11):
# 0.23 s at 256 rows, 0.21 s at 512, 0.28 s at 1024, 0.30 s at 2048 and
# 0.35 s at 8192; with the GC off every size reads alike
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
    none for a file from elsewhere."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [r for r in (_record(c, kind) for c in _comments(fh)) if r is not None]


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

    Returns ``({col: (distinct raw values, codes)}, stream fields, short
    row or None)``; the codes, and the raw fields of ``stream_col`` (whose
    values are all distinct, so they get no codes), cover the rows before
    the short row.
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
    return encoded, stream, short


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


def _stream_ids(fields, alive, col, failure):
    """``int`` of the surviving rows' stream fields, and the earlier of
    ``failure`` and the first surviving row whose field ``int`` cannot
    read (the ids are None then)."""
    kept = list(compress(fields, alive.tolist()))
    try:
        return np.array(list(map(int, kept))), failure
    except ValueError:
        for row, raw in zip(np.flatnonzero(alive).tolist(), kept):
            try:
                int(raw)
            except ValueError:
                if failure is None or row < failure[0]:
                    failure = (row, col, int, raw)
                return None, failure


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

    Leading ``#`` lines, such as the provenance line of a file this
    package wrote, are skipped.

    Errors are those of resolving the rows one by one in file order:
    filters, then D and X variables in declaration order, then the
    outcome, then the stream id.  A value that fails to resolve raises
    only when a row reaching that step carries it, and the first such
    row (or the first short row, if earlier) decides the exception.  A
    field that cannot be parsed as a number (a stream id, a value under a
    ``bins`` quantizer) raises ``SchemaMismatchError`` naming its column.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        _comments(fh)
        reader = csv.reader(fh, delimiter=delimiter)
        # rows whose fields are all blank are skipped
        first = next((r for r in reader if "".join(r).strip()), None)
        if first is None:
            raise EmptyDatasetError(f"{path} has no rows")
        if has_header:
            header = [h.strip() for h in first]
        else:
            if columns is None:
                raise InvalidParamsError("need explicit columns when there is no header")
            header = [h.strip() for h in columns]
            reader = chain([first], reader)
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
        steps = [(col_of[f.column], _accepting(f)) for f in filters]
        steps += [(col_of[v.name], partial(_category_index, v)) for v in variables]
        if has_y:
            steps.append((col_of[y_name], partial(_outcome_index, schema.y_var)))
        encoded, stream, short = _encode_columns(
            reader, len(header), sorted({col for col, _ in steps}), stream_col)

    alive, tables, failure = _resolve(steps, encoded)
    stream_ids = None
    if stream_col is not None:
        stream_ids, failure = _stream_ids(stream, alive, stream_col, failure)
    if failure is not None:
        _, col, resolve, raw = failure
        try:
            resolve(raw)  # raises again: the exception of the first failing row
        except FairmapError:
            raise
        except ValueError as exc:  # int() or float() of a malformed field
            raise SchemaMismatchError(
                f"column {header[col]!r}: cannot read {raw!r} ({exc})"
            ) from exc
    if short is not None:
        raise SchemaMismatchError(f"short row in {path}: {short!r}")
    if not alive.any():
        raise EmptyDatasetError(f"no records of {path} survive ingestion")

    def kept(table, codes):
        return np.array([-1 if r is None else r for r in table],
                        dtype=np.int64)[codes[alive]]

    var_tables = tables[len(filters):]
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
    has_y = dataset.has_outcomes
    header = [v.name for v in schema.d_vars + schema.x_vars]
    if has_y:
        header.append(schema.y_var.name)
    header.append(STREAM_COLUMN)
    end = csv.excel.lineterminator

    def text(fields):
        """``fields`` as ``csv`` writes them, each followed by the delimiter."""
        buf = io.StringIO()
        csv.writer(buf, delimiter=delimiter).writerow([*fields, ""])
        return buf.getvalue()[:-len(end)]

    def prefixes(variables, sizes, flat):
        """The text of each occurring cell's labels, indexed by cell."""
        table = [None] * int(np.prod(sizes))
        cells = np.unique(flat)
        for cell, *idx in zip(cells.tolist(), *np.unravel_index(cells, sizes)):
            table[cell] = text(v.alphabet.categories[i] for v, i in zip(variables, idx))
        return table

    prefix_d = prefixes(schema.d_vars, schema.d_sizes, dataset.d)
    prefix_x = prefixes(schema.x_vars, schema.x_sizes, dataset.x)
    if has_y:
        prefix_y = [text([label]) for label in schema.y_var.alphabet.categories]
        ys = dataset.y
    else:
        prefix_y, ys = [""], np.zeros_like(dataset.y)
    # csv quotes the stream ids that hold the delimiter
    id_text = str if delimiter not in "-0123456789" else lambda i: text([i])[:-1]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if record is not None:
            fh.write(provenance_line("data", record))
        csv.writer(fh, delimiter=delimiter).writerow(header)
        for start in range(0, len(ys), _WRITE_ROWS):
            block = slice(start, start + _WRITE_ROWS)
            fh.write("".join([
                prefix_d[d] + prefix_x[x] + prefix_y[y] + i + end
                for d, x, y, i in zip(dataset.d[block].tolist(),
                                      dataset.x[block].tolist(),
                                      ys[block].tolist(),
                                      map(id_text, dataset.stream_ids[block].tolist()))
            ]))


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
    """Save the records of ``dataset`` under ``binding``, a mapping of
    strings naming where they came from (see ``read_training``)."""
    np.savez(path, d=dataset.d, x=dataset.x, y=dataset.y,
             stream_ids=dataset.stream_ids,
             binding=np.array(json.dumps(binding, sort_keys=True)))


def read_training(path: str, schema: Schema, binding: dict) -> Optional[Dataset]:
    """The records ``write_training`` saved under exactly ``binding``; None
    when the file is missing, unreadable or saved under another binding."""
    try:
        with np.load(path, allow_pickle=False) as saved:
            if str(saved["binding"]) != json.dumps(binding, sort_keys=True):
                return None
            return Dataset(schema, saved["d"], saved["x"], saved["y"],
                           stream_ids=saved["stream_ids"])
    except (OSError, KeyError, ValueError, zipfile.BadZipFile):
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
        ny = schema.ny
        for d in range(schema.nd):
            for x in range(schema.nx):
                for y in range(ny):
                    row = kernel.probs[d, x, y]
                    for j in np.nonzero(row)[0]:
                        writer.writerow(
                            [
                                schema.d_label(d),
                                schema.x_label(x),
                                schema.y_label(y),
                                schema.x_label(int(j) // ny),
                                schema.y_label(int(j) % ny),
                                f"{row[j]:.17g}",
                            ]
                        )


def _probability(raw: str) -> float:
    prob = float(raw)
    if not 0.0 <= prob < np.inf:  # the row-sum check misses NaN and offset negatives
        raise ValueError("not a finite nonnegative number")
    return prob


def read_kernel(path: str, schema: Schema) -> TransformKernel:
    """Parse a kernel artifact, validating row-stochasticity; the record of
    its provenance line becomes the kernel's provenance."""
    with open(path, "r", encoding="utf-8") as fh:
        meta = _record(fh.readline(), "kernel")
        if meta is None:
            raise SchemaMismatchError(f"{path} is not a kernel artifact")
        rest = fh.read()
    reader = csv.reader(io.StringIO(rest))
    header = next(reader)
    if [h.strip() for h in header] != list(_KERNEL_COLUMNS):
        raise SchemaMismatchError(f"unexpected kernel header {header!r}")
    nd, nx, ny = schema.nd, schema.nx, schema.ny
    parsers = (schema.d_from_label, schema.x_from_label, schema.y_from_label,
               schema.x_from_label, schema.y_from_label, _probability)
    probs = np.zeros((nd, nx, ny, nx * ny))
    listed_on = np.zeros(probs.shape, dtype=np.int64)  # file line of each entry
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
        if listed_on[entry]:
            raise SchemaMismatchError(
                f"{line}: repeats the transition of line {listed_on[entry]}")
        listed_on[entry] = line_no
        probs[entry] = prob
    sums = probs.sum(axis=3)
    if np.abs(sums - 1.0).max() > ROW_ATOL:
        raise SchemaMismatchError("kernel rows do not sum to 1")
    return TransformKernel(schema, probs, provenance=meta)
