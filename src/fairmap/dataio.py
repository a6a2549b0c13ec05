"""Delimiter-separated data files and kernel artifacts.

Data files carry a header row naming the schema variables (an explicit
column list can stand in for a missing header).  Ingestion applies row
filters first, then per-variable quantization; a value that already is a
category label passes through unchanged, so transformed artifacts read
back without re-quantization.

Ingestion streams the file once and keeps only the columns it needs, as
integer codes into each column's distinct raw values.  Filters and
quantizers then run once per distinct value, not once per row, and
records are indexed through the code arrays.  Errors are still those of
a row-by-row pass in file order (see ``read_dataset``).

Kernel files are CSV with composite category labels, one line per
positive transition, grouped by input cell, with a leading provenance
comment holding the kernel's ``key=value`` provenance record (the
seed-independent config fingerprint among it).
"""

from __future__ import annotations

import csv
import io
from functools import partial
from itertools import chain, islice
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .constants import ROW_ATOL
from .domain import Dataset, Quantizer, Schema
from .errors import (
    EmptyDatasetError,
    InvalidParamsError,
    ProvenanceMismatchError,
    SchemaMismatchError,
)
from .optimizer import TransformKernel

STREAM_COLUMN = "_stream"
KERNEL_MAGIC = "# fairmap-kernel"
DATA_MAGIC = "# fairmap-data"
# rows parsed per step: few enough that a chunk's row lists are freed
# before the cyclic GC promotes them to its oldest generation, whose full
# collections walk every live object (about 20% of a 100k-row read
# with chunks of 8192)
_CHUNK_ROWS = 512


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


def _header_record(header: str, magic: str, expected_fingerprint: Optional[str],
                   allow_mismatch: bool, artifact: str) -> dict:
    """The ``key=value`` record of a provenance header line; refuses a
    fingerprint other than the expected one unless explicitly allowed."""
    meta = dict(
        part.split("=", 1)
        for part in header[len(magic):].strip().split()
        if "=" in part
    )
    found = meta.get("fingerprint", "")
    if expected_fingerprint not in (None, found) and not allow_mismatch:
        raise ProvenanceMismatchError(
            f"{artifact} under fingerprint {found!r}, "
            f"configuration is {expected_fingerprint!r}"
        )
    return meta


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


def _encode_columns(rows, width: int, cols: Sequence[int]):
    """Stream the non-blank ``rows`` into integer codes, one dict of seen
    raw strings per wanted column.  Stops at the first row shorter than
    ``width``.

    Returns ``({col: (distinct raw values, codes)}, short row or None)``;
    the codes cover the rows before the short row.
    """
    seen = {col: _Codes() for col in cols}
    parts = {col: [] for col in cols}
    short = None
    while short is None:
        chunk = list(islice(rows, _CHUNK_ROWS))
        if not chunk:
            break
        chunk = [r for r in chunk if "".join(r).strip()]
        if not chunk:
            continue
        lengths = list(map(len, chunk))
        if min(lengths) < width:
            cut = next(i for i, k in enumerate(lengths) if k < width)
            short, chunk = chunk[cut], chunk[:cut]
        for col in cols:
            raws = map(itemgetter(col), chunk)
            parts[col].append(np.fromiter(map(seen[col].__getitem__, raws),
                                          dtype=np.int64, count=len(chunk)))
    encoded = {
        col: (list(seen[col]), np.concatenate(parts[col] or [np.empty(0, np.int64)]))
        for col in cols
    }
    return encoded, short


def _resolve(steps, encoded):
    """Run each step's resolver once per distinct raw value that the rows
    still alive at that step carry; a value resolving to None drops its
    rows.

    Returns the mask of surviving rows, each step's (per-value results,
    row codes), and ``(resolver, raw)`` of the earliest row whose value
    failed to resolve, or None.  Failures are remembered, not kept as
    exception objects, whose tracebacks would pin this frame.
    """
    n_rows = len(encoded[steps[0][0]][1])
    alive = np.ones(n_rows, dtype=bool)
    first_row, failure = n_rows, None
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
            if row < first_row:
                first_row, failure = row, (resolve, values[codes[row]])
        alive &= np.array([r is not None for r in table], dtype=bool)[codes]
        tables.append((table, codes))
    return alive, tables, failure


def read_dataset(
    path: str,
    schema: Schema,
    delimiter: str = ",",
    has_header: bool = True,
    columns: Optional[Sequence[str]] = None,
    filters: Sequence = (),
    apply_filters: bool = True,
    expected_fingerprint: Optional[str] = None,
    allow_mismatch: bool = False,
) -> Dataset:
    """Load records; rows failing a filter or mapping to a dropped
    category are discarded.  A missing outcome column (or blank outcome
    fields) yields apply-mode records.

    Files this package wrote start with a provenance comment; when
    ``expected_fingerprint`` is given and such a comment is present, a
    mismatch is refused unless explicitly allowed.  Leading ``#`` lines
    are skipped either way.

    Errors are those of resolving the rows one by one in file order:
    filters, then D and X variables in declaration order, then the
    outcome, then the stream id.  A value that fails to resolve raises
    only when a row reaching that step carries it, and the first such
    row (or the first short row, if earlier) decides the exception.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        comments = []
        pos = fh.tell()
        line = fh.readline()
        while line.startswith("#"):
            comments.append(line.rstrip("\n"))
            pos = fh.tell()
            line = fh.readline()
        fh.seek(pos)
        reader = csv.reader(fh, delimiter=delimiter)
        # rows whose fields are all blank are skipped
        first = next((r for r in reader if "".join(r).strip()), None)
        for comment in comments:
            if comment.startswith(DATA_MAGIC):
                _header_record(comment, DATA_MAGIC, expected_fingerprint,
                               allow_mismatch, "data file was produced")
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
        active_filters = []
        if apply_filters:
            for f in filters:
                if f.column not in col_of:
                    raise SchemaMismatchError(
                        f"filter column {f.column!r} missing from {path}"
                    )
                active_filters.append(f)
        stream_col = col_of.get(STREAM_COLUMN)

        # (column, resolver) in the order the row loop applies them
        steps = [(col_of[f.column], _accepting(f)) for f in active_filters]
        steps += [(col_of[v.name], partial(_category_index, v)) for v in variables]
        if has_y:
            steps.append((col_of[y_name], partial(_outcome_index, schema.y_var)))
        if stream_col is not None:
            steps.append((stream_col, int))
        encoded, short = _encode_columns(
            reader, len(header), sorted({col for col, _ in steps}))

    alive, tables, failure = _resolve(steps, encoded)
    if failure is not None:
        resolve, raw = failure
        resolve(raw)  # raises again: the loop's exception for its first failing row
    if short is not None:
        raise SchemaMismatchError(f"short row in {path}: {short!r}")
    if not alive.any():
        raise EmptyDatasetError(f"no records of {path} survive ingestion")

    def kept(table, codes):
        return np.array([-1 if r is None else r for r in table],
                        dtype=np.int64)[codes[alive]]

    var_tables = tables[len(active_filters):]
    nd_vars = len(schema.d_vars)
    n_dx = nd_vars + len(schema.x_vars)
    d = np.ravel_multi_index([kept(*t) for t in var_tables[:nd_vars]],
                             schema.d_sizes)
    x = np.ravel_multi_index([kept(*t) for t in var_tables[nd_vars:n_dx]],
                             schema.x_sizes)
    y = kept(*var_tables[n_dx]) if has_y else np.full(d.size, -1)
    stream_ids = None
    if stream_col is not None:
        table, codes = tables[-1]
        stream_ids = np.array([table[c] for c in codes[alive].tolist()])
    return Dataset(schema, d, x, y, stream_ids=stream_ids)


def write_dataset(path: str, dataset: Dataset, delimiter: str = ",",
                  include_stream: bool = True,
                  fingerprint: Optional[str] = None) -> None:
    """Write records with protected attributes retained and per-variable
    category labels; outcomes are omitted entirely for apply-mode data.
    A provenance comment is prepended when a fingerprint is given."""
    schema = dataset.schema
    has_y = dataset.has_outcomes
    header = [v.name for v in schema.d_vars + schema.x_vars]
    cols = []
    for flat, variables, sizes in ((dataset.d, schema.d_vars, schema.d_sizes),
                                   (dataset.x, schema.x_vars, schema.x_sizes)):
        for v, idx in zip(variables, np.unravel_index(flat, sizes)):
            cols.append(_labels(v, idx))
    if has_y:
        header.append(schema.y_var.name)
        cols.append(_labels(schema.y_var, dataset.y))
    if include_stream:
        header.append(STREAM_COLUMN)
        cols.append(list(map(str, dataset.stream_ids.tolist())))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fingerprint is not None:
            fh.write(f"{DATA_MAGIC} fingerprint={fingerprint}\n")
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        writer.writerows(zip(*cols))


def _labels(variable, idx: np.ndarray) -> list:
    """Category labels of a column of indices, by one fancy index."""
    return np.array(variable.alphabet.categories, dtype=object)[idx].tolist()


# ---------------------------------------------------------------------------
# kernel artifacts
# ---------------------------------------------------------------------------


def write_kernel(path: str, kernel: TransformKernel) -> None:
    """Write the kernel with its provenance record as the header line."""
    schema = kernel.schema
    record = " ".join(f"{k}={v}" for k, v in kernel.provenance.items())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"{KERNEL_MAGIC} {record}\n")
        writer = csv.writer(fh)
        writer.writerow(["d", "x", "y", "x_hat", "y_hat", "prob"])
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


def read_kernel(path: str, schema: Schema,
                expected_fingerprint: Optional[str] = None,
                allow_mismatch: bool = False) -> TransformKernel:
    """Parse a kernel artifact, validating row-stochasticity and, when an
    expected fingerprint is given, provenance."""
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first.startswith(KERNEL_MAGIC):
            raise SchemaMismatchError(f"{path} is not a kernel artifact")
        rest = fh.read()
    meta = _header_record(first, KERNEL_MAGIC, expected_fingerprint,
                          allow_mismatch, "kernel was fit")
    reader = csv.reader(io.StringIO(rest))
    header = next(reader)
    if [h.strip() for h in header] != ["d", "x", "y", "x_hat", "y_hat", "prob"]:
        raise SchemaMismatchError(f"unexpected kernel header {header!r}")
    nd, nx, ny = schema.nd, schema.nx, schema.ny
    probs = np.zeros((nd, nx, ny, nx * ny))
    for row in reader:
        if not row:
            continue
        d = schema.d_from_label(row[0])
        x = schema.x_from_label(row[1])
        y = schema.y_from_label(row[2])
        xh = schema.x_from_label(row[3])
        yh = schema.y_from_label(row[4])
        probs[d, x, y, xh * ny + yh] = float(row[5])
    sums = probs.sum(axis=3)
    if np.abs(sums - 1.0).max() > ROW_ATOL:
        raise SchemaMismatchError("kernel rows do not sum to 1")
    return TransformKernel(schema, probs, provenance=dict(meta))
