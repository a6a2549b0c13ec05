"""Column-at-a-time ingestion and writing against the row-at-a-time
reference loops they replaced: same records, same exceptions, same bytes."""

import csv
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmap import Alphabet, Dataset, Quantizer, Schema, Variable, dataio
from fairmap.config import Filter
from fairmap.dataio import (
    DATA_MAGIC,
    STREAM_COLUMN,
    _category_index,
    _header_record,
    read_dataset,
    write_dataset,
)
from fairmap.errors import (
    EmptyDatasetError,
    InvalidParamsError,
    SchemaMismatchError,
)


def reference_read(path, schema, delimiter=",", has_header=True, columns=None,
                   filters=(), apply_filters=True, expected_fingerprint=None,
                   allow_mismatch=False):
    """The row loop ``read_dataset`` replaced: every row held in memory,
    filters and quantizers run once per row."""
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


def reference_write(path, dataset, delimiter=",", include_stream=True,
                    fingerprint=None):
    """The row loop ``write_dataset`` replaced."""
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


def make_schema(race_default=None, race_drop=True):
    """Two D and two X variables: identity, map (with ``default`` or
    ``drop_unmapped``), bins and identity quantizers."""
    return Schema((
        Variable(Alphabet("sex", ("F", "M")), "D"),
        Variable(Alphabet("race", ("a", "b", "o")), "D", Quantizer(
            "map", mapping={"A": "a", "B": "b"}, default=race_default,
            drop_unmapped=race_drop)),
        Variable(Alphabet("age", ("young", "mid", "old")), "X", Quantizer(
            "bins", edges=(25, 45), labels=("young", "mid", "old"))),
        Variable(Alphabet("charge", ("F", "M")), "X"),
        Variable(Alphabet("out", ("0", "1")), "Y"),
    ))


FILTERS = (
    Filter("days", "between", [-30, 30]),
    Filter("score", "in", ["Low", "High"]),
    Filter("charge", "!=", "O"),
)

# raw values per column; the bad ones (an unknown category, an unmapped
# value, one the bins cannot parse, an outcome outside {0, 1}, a stream
# id that is no integer or overflows) appear only in columns an example
# marks as carrying errors
GOOD = {
    "sex": ["F", "M", " M "],
    "race": ["A", "B", "a"],
    "age": ["20", "30", "45", "70", "young"],
    "charge": ["F", "M"],
    "days": ["-40", "0", "10", "x"],
    "score": ["Low", "High", "N/A"],
    "out": ["0", "1", "", " "],
    STREAM_COLUMN: ["0", "7", "-3", " 12 "],
}
BAD = {
    "sex": ["X"],
    "race": ["?", "C"],
    "age": ["abc"],
    "charge": ["Q", "O"],
    "out": ["2"],
    STREAM_COLUMN: ["s1", "18446744073709551616"],
}
COLUMNS = ("sex", "race", "age", "charge", "days", "score", "out", STREAM_COLUMN)


def outcome(fn):
    """The records, or the exception type and message, of a call."""
    try:
        ds = fn()
    except Exception as exc:  # compared, not handled
        return ("raised", type(exc), str(exc))
    return ("ok", ds.d.dtype, ds.d.tolist(), ds.x.tolist(), ds.y.tolist(),
            ds.stream_ids.dtype, ds.stream_ids.tolist())


def read_both(text, schema, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        new = outcome(lambda: read_dataset(path, schema, **kwargs))
        ref = outcome(lambda: reference_read(path, schema, **kwargs))
    return new, ref


def written_bytes(writer, dataset, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        writer(path, dataset, **kwargs)
        with open(path, "rb") as fh:
            return fh.read()


@st.composite
def data_files(draw):
    """A small delimited file plus the schema and ``read_dataset``
    arguments to read it with."""
    schema = make_schema(
        race_default=draw(st.sampled_from([None, "o"])),
        race_drop=draw(st.booleans()),
    )
    filters = draw(st.lists(st.sampled_from(FILTERS), unique_by=id))
    apply_filters = draw(st.booleans())
    active = {f.column for f in filters} if apply_filters else set()
    # values a filter or a dropping quantizer removes are good values
    # only while that filter or rule is on
    pools = {c: list(v) for c, v in GOOD.items()}
    if "charge" in active:
        pools["charge"].append("O")
    race = schema.variable("race").quantizer
    if race.drop_unmapped or race.default is not None:
        pools["race"].append("C")
    for col in draw(st.one_of(st.just(set()), st.sets(st.sampled_from(sorted(BAD))))):
        pools[col] += BAD[col]
    # schema and filter columns stay unless the example asks for a
    # missing one
    missing_ok = draw(st.integers(0, 9)) == 0
    required = {"sex", "race", "age", "charge"} | active
    present = draw(st.permutations(COLUMNS))
    header = [c for c in present
              if draw(st.booleans()) or (c in required and not missing_ok)]
    delimiter = draw(st.sampled_from([",", ";"]))
    with_short_rows = draw(st.integers(0, 3)) == 0
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.integers(0, 19))
        if kind == 0:
            lines.append(draw(st.sampled_from(["", "  ", delimiter.join(["  "] * 3)])))
            continue
        fields = [draw(st.sampled_from(pools[c])) for c in header]
        if kind == 1 and with_short_rows:
            fields = fields[:draw(st.integers(1, max(1, len(fields) - 1)))]
        lines.append(delimiter.join(fields))
    has_header = draw(st.booleans())
    comments = draw(st.lists(st.sampled_from([
        "# a note", f"{DATA_MAGIC} fingerprint=abc", f"{DATA_MAGIC} fingerprint=zzz",
    ]), max_size=2))
    body = ([delimiter.join(f" {h} " for h in header)] if has_header else []) + lines
    text = "".join(c + "\n" for c in comments) + "\n".join(body) + "\n"
    kwargs = {
        "delimiter": delimiter,
        "has_header": has_header,
        "columns": None if has_header else header,
        "filters": filters,
        "apply_filters": apply_filters,
        "expected_fingerprint": draw(st.sampled_from([None, "abc"])),
        "allow_mismatch": draw(st.booleans()),
    }
    return text, schema, kwargs


class TestReadOracle:
    @settings(max_examples=300, deadline=None)
    @given(data_files(), st.sampled_from([1, 2, 3, dataio._CHUNK_ROWS]))
    def test_same_records_or_same_exception(self, case, chunk_rows):
        text, schema, kwargs = case
        # small chunks put short and blank rows on chunk boundaries
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            new, ref = read_both(text, schema, **kwargs)
        assert new == ref

    def test_bad_values_only_in_filtered_or_dropped_rows(self):
        # "O" charges are filtered out, "?" races dropped as unmapped, and
        # a bad age behind a dropped race is never resolved
        text = ("sex,race,age,charge,days,score,out\n"
                "F,A,20,F,0,Low,1\n"
                "M,B,30,O,0,Low,0\n"
                "Q,A,30,O,0,Low,0\n"
                "M,?,abc,M,0,Low,0\n"
                "X,A,30,M,99,Low,0\n")
        new, ref = read_both(text, make_schema(), filters=FILTERS)
        assert new == ref and new[0] == "ok" and len(new[2]) == 1

    @pytest.mark.parametrize("rows, message", [
        # the bad age comes first in the file although sex resolves first
        (["F,A,abc,F", "X,A,20,F"], "could not convert"),
        (["X,A,20,F", "F,A,abc,F"], "'X' is not a category"),
        # the first "abc" sits in a row the unmapped race already dropped
        (["F,?,abc,F", "X,A,20,F", "F,A,abc,F"], "'X' is not a category"),
        # a short row after a bad value: the bad value's row is earlier
        (["F,A,20,F", "F,A,20,Q", "F,A"], "'Q' is not a category"),
        (["F,A", "F,A,20,Q"], "short row"),
    ])
    def test_earliest_failing_row_decides(self, rows, message):
        text = "sex,race,age,charge\n" + "\n".join(rows) + "\n"
        new, ref = read_both(text, make_schema())
        assert new == ref and new[0] == "raised" and message in new[2]


@st.composite
def datasets(draw):
    schema = make_schema()
    n = draw(st.integers(1, 30))
    d = draw(st.lists(st.integers(0, schema.nd - 1), min_size=n, max_size=n))
    x = draw(st.lists(st.integers(0, schema.nx - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(-1 if draw(st.booleans()) else 0, 1),
                      min_size=n, max_size=n))
    sid = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    return Dataset(schema, np.array(d), np.array(x), np.array(y),
                   stream_ids=np.array(sid, dtype=np.int64))


class TestWriteOracle:
    @settings(max_examples=100, deadline=None)
    @given(datasets(), st.sampled_from([",", ";"]), st.booleans(),
           st.sampled_from([None, "abc"]))
    def test_same_bytes(self, dataset, delimiter, include_stream, fingerprint):
        kwargs = {"delimiter": delimiter, "include_stream": include_stream,
                  "fingerprint": fingerprint}
        assert (written_bytes(write_dataset, dataset, **kwargs)
                == written_bytes(reference_write, dataset, **kwargs))
