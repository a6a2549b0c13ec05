"""Delimiter-separated data files and kernel artifacts.

Data files carry a header row naming the schema variables (an explicit
column list can stand in for a missing header).  Ingestion applies row
filters first, then per-variable quantization; a value that already is a
category label passes through unchanged, so transformed artifacts read
back without re-quantization.

Kernel files are CSV with composite category labels, one line per
positive transition, grouped by input cell, with a leading provenance
comment holding the kernel's ``key=value`` provenance record (the
seed-independent config fingerprint among it).
"""

from __future__ import annotations

import csv
import io
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
        rows = [r for r in reader if r and any(f.strip() for f in r)]
    for comment in comments:
        if comment.startswith(DATA_MAGIC):
            _header_record(comment, DATA_MAGIC, expected_fingerprint,
                           allow_mismatch, "data file was produced")
    if not rows:
        raise EmptyDatasetError(f"{path} has no rows")
    if has_header:
        header = [h.strip() for h in rows[0]]
        body = rows[1:]
    else:
        if columns is None:
            raise InvalidParamsError("need explicit columns when there is no header")
        header = [h.strip() for h in columns]
        body = rows
    col_of = {name: i for i, name in enumerate(header)}

    needed = [v.name for v in schema.d_vars + schema.x_vars]
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

    d_list, x_list, y_list, sid_list = [], [], [], []
    for row in body:
        if len(row) < len(header):
            raise SchemaMismatchError(f"short row in {path}: {row!r}")
        if any(not f.accepts(row[col_of[f.column]]) for f in active_filters):
            continue
        d_parts, x_parts = [], []
        dropped = False
        for var, parts in ((schema.d_vars, d_parts), (schema.x_vars, x_parts)):
            for v in var:
                idx = _category_index(v, row[col_of[v.name]])
                if idx is None:
                    dropped = True
                    break
                parts.append(idx)
            if dropped:
                break
        if dropped:
            continue
        if has_y and row[col_of[y_name]].strip():
            y_idx = _category_index(schema.y_var, row[col_of[y_name]])
            if y_idx is None:
                continue
        else:
            y_idx = -1
        d_list.append(schema.flatten_d(d_parts))
        x_list.append(schema.flatten_x(x_parts))
        y_list.append(y_idx)
        if stream_col is not None:
            sid_list.append(int(row[stream_col]))
    if not d_list:
        raise EmptyDatasetError(f"no records of {path} survive ingestion")
    return Dataset(
        schema,
        np.array(d_list),
        np.array(x_list),
        np.array(y_list),
        stream_ids=np.array(sid_list) if sid_list else None,
    )


def write_dataset(path: str, dataset: Dataset, delimiter: str = ",",
                  include_stream: bool = True,
                  fingerprint: Optional[str] = None) -> None:
    """Write records with protected attributes retained and per-variable
    category labels; outcomes are omitted entirely for apply-mode data.
    A provenance comment is prepended when a fingerprint is given."""
    schema = dataset.schema
    has_y = dataset.has_outcomes
    header = [v.name for v in schema.d_vars + schema.x_vars]
    if has_y:
        header.append(schema.y_var.name)
    if include_stream:
        header.append(STREAM_COLUMN)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fingerprint is not None:
            fh.write(f"{DATA_MAGIC} fingerprint={fingerprint}\n")
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        for i in range(len(dataset)):
            d_parts = schema.unflatten_d(int(dataset.d[i]))
            x_parts = schema.unflatten_x(int(dataset.x[i]))
            row = [
                v.alphabet.categories[p]
                for v, p in zip(schema.d_vars, d_parts)
            ] + [
                v.alphabet.categories[p]
                for v, p in zip(schema.x_vars, x_parts)
            ]
            if has_y:
                row.append(schema.y_label(int(dataset.y[i])))
            if include_stream:
                row.append(str(int(dataset.stream_ids[i])))
            writer.writerow(row)


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
