"""Column-at-a-time ingestion (numpy on plain files, ``csv`` on the rest)
and writing against the row-at-a-time reference loops they replaced: same
records, same exceptions, same bytes; and which reader a file gets."""

import csv
import importlib.util
import os
import sys
import tempfile
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import yaml

from fairmap import Alphabet, Dataset, Quantizer, Schema, Variable, dataio
from fairmap.cli import main
from fairmap.config import Filter
from fairmap.dataio import (
    STREAM_COLUMN,
    _category_index,
    provenance_line,
    provenance_records,
    read_dataset,
    read_kernel,
    read_training,
    write_dataset,
    write_kernel,
    write_training,
)
from fairmap.errors import (
    EmptyDatasetError,
    FairmapError,
    InvalidParamsError,
    SchemaMismatchError,
)
from fairmap.optimizer import TransformKernel
from fairmap.presets import preset_config, preset_dict

DATA_MAGIC = "# fairmap-data"  # how a data file's provenance line starts
BENCH_INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "inputs.py")


def read_field(column, resolve, raw):
    """``resolve(raw)``; a field ``int`` or ``float`` cannot parse is a
    schema mismatch naming its column."""
    try:
        return resolve(raw)
    except FairmapError:
        raise
    except ValueError as exc:
        raise SchemaMismatchError(
            f"column {column!r}: cannot read {raw!r} ({exc})"
        ) from exc


def reference_read(path, schema, delimiter=",", has_header=True, columns=None,
                   filters=(), apply_filters=True):
    """The row loop ``read_dataset`` replaced: every row held in memory,
    filters and quantizers run once per row, and a stream id outside int64
    refused naming the line its row ends on."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        comments = []
        pos = fh.tell()
        line = fh.readline()
        while line.startswith("#"):
            comments.append(line.rstrip("\n"))
            pos = fh.tell()
            line = fh.readline()
        fh.seek(pos)
        reader = csv.reader(fh, delimiter=delimiter)
        numbered = [(r, len(comments) + reader.line_num) for r in reader
                    if r and any(f.strip() for f in r)]
    rows = [r for r, _ in numbered]
    if not rows:
        raise EmptyDatasetError(f"{path} has no rows")
    if has_header:
        header = [h.strip() for h in rows[0]]
        body = numbered[1:]
    else:
        if columns is None:
            raise InvalidParamsError("need explicit columns when there is no header")
        header = [h.strip() for h in columns]
        body = numbered
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
    for row, line_no in body:
        if len(row) < len(header):
            raise SchemaMismatchError(f"short row in {path}: {row!r}")
        if any(not f.accepts(row[col_of[f.column]]) for f in active_filters):
            continue
        d_parts, x_parts = [], []
        dropped = False
        for var, parts in ((schema.d_vars, d_parts), (schema.x_vars, x_parts)):
            for v in var:
                idx = read_field(v.name, partial(_category_index, v),
                                 row[col_of[v.name]])
                if idx is None:
                    dropped = True
                    break
                parts.append(idx)
            if dropped:
                break
        if dropped:
            continue
        if has_y and row[col_of[y_name]].strip():
            y_idx = read_field(y_name, partial(_category_index, schema.y_var),
                               row[col_of[y_name]])
            if y_idx is None:
                continue
        else:
            y_idx = -1
        d_list.append(int(np.ravel_multi_index(d_parts, schema.d_sizes)))
        x_list.append(int(np.ravel_multi_index(x_parts, schema.x_sizes)))
        y_list.append(y_idx)
        if stream_col is not None:
            sid = read_field(STREAM_COLUMN, int, row[stream_col])
            if not -2**63 <= sid < 2**63:
                raise SchemaMismatchError(f"{path} line {line_no}: stream id "
                                          f"{row[stream_col].strip()} is outside int64")
            sid_list.append(sid)
    if not d_list:
        raise EmptyDatasetError(f"no records of {path} survive ingestion")
    return Dataset(
        schema,
        np.array(d_list),
        np.array(x_list),
        np.array(y_list),
        stream_ids=np.array(sid_list) if sid_list else None,
    )


def reference_write(path, dataset, delimiter=",", fingerprint=None):
    """The row loop ``write_dataset`` replaced."""
    schema = dataset.schema
    has_y = dataset.has_outcomes
    header = [v.name for v in schema.d_vars + schema.x_vars]
    if has_y:
        header.append(schema.y_var.name)
    header.append(STREAM_COLUMN)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fingerprint is not None:
            fh.write(f"{DATA_MAGIC} fingerprint={fingerprint}\n")
        writer = csv.writer(fh, delimiter=delimiter)
        writer.writerow(header)
        for i in range(len(dataset)):
            d_parts = np.unravel_index(dataset.d[i], schema.d_sizes)
            x_parts = np.unravel_index(dataset.x[i], schema.x_sizes)
            row = [
                v.alphabet.categories[p]
                for v, p in zip(schema.d_vars, d_parts)
            ] + [
                v.alphabet.categories[p]
                for v, p in zip(schema.x_vars, x_parts)
            ]
            if has_y:
                row.append(schema.y_label(int(dataset.y[i])))
            row.append(str(int(dataset.stream_ids[i])))
            writer.writerow(row)


def reference_write_kernel(path, kernel):
    """The d/x/y loop ``write_kernel`` replaced: one ``writerow`` per
    nonzero entry, labels joined from each index's parts."""
    schema = kernel.schema

    def label(variables, sizes, flat):
        parts = np.unravel_index(flat, sizes)
        return "|".join(v.alphabet.categories[i] for v, i in zip(variables, parts))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(provenance_line("kernel", kernel.provenance))
        writer = csv.writer(fh)
        writer.writerow(["d", "x", "y", "x_hat", "y_hat", "prob"])
        ny = schema.ny
        for d in range(schema.nd):
            for x in range(schema.nx):
                for y in range(ny):
                    row = kernel.probs[d, x, y]
                    for j in np.nonzero(row)[0]:
                        writer.writerow([
                            label(schema.d_vars, schema.d_sizes, d),
                            label(schema.x_vars, schema.x_sizes, x),
                            schema.y_label(y),
                            label(schema.x_vars, schema.x_sizes, int(j) // ny),
                            schema.y_label(int(j) % ny),
                            f"{row[j]:.17g}",
                        ])


def make_schema(race_default=None, race_drop=True):
    """Two D and two X variables: identity, map (with ``default`` or
    ``drop_unmapped``), bins and identity quantizers."""
    return Schema((
        Variable(Alphabet("sex", ("F", "M")), "D"),
        Variable(Alphabet("race", ("a", "b", "o")), "D", Quantizer(
            "map", mapping={"A": "a", "B": "b", "Åland": "b"}, default=race_default,
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
# marks as carrying errors.  Some values span more than one 8-byte word,
# some are not ASCII (a no-break space strips away), and the stream ids
# sit on either side of 18 digits
GOOD = {
    "sex": ["F", "M", " M ", "\u00a0F"],
    "race": ["A", "B", "a", "Åland"],
    "age": ["20", "30", "45", "70", "young", "000000000000030"],
    "charge": ["F", "M"],
    "days": ["-40", "0", "10", "x", "-0000000000010"],
    "score": ["Low", "High", "N/A", "très élevé vraiment"],
    "out": ["0", "1", "", " "],
    STREAM_COLUMN: ["0", "7", "-3", " 12 ", "+5", "١٢", "123456789012345678",
                    "-999999999999999999", "1234567890123456789"],
}
BAD = {
    "sex": ["X"],
    "race": ["?", "C", "Ålanders"],
    "age": ["abc"],
    "charge": ["Q", "O"],
    "out": ["2"],
    STREAM_COLUMN: ["s1", "-", "18446744073709551616", "9999999999999999999"],
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
    """``read_dataset`` against the reference loop, whose ``apply_filters``
    switch maps onto no filters."""
    new_kwargs = dict(kwargs)
    if not new_kwargs.pop("apply_filters", True):
        new_kwargs["filters"] = ()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        new = outcome(lambda: read_dataset(path, schema, **new_kwargs))
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
    delimiter = draw(st.sampled_from([",", ";", "\t"]))
    # rows the plain reader leaves to csv, in about half of the examples
    irregular = draw(st.one_of(st.just(set()), st.sets(st.sampled_from(
        ["short", "long", "blank", "quoted"]))))
    lines = []
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.integers(0, 9))
        if kind == 0 and "blank" in irregular:
            lines.append(draw(st.sampled_from(
                ["", "  ", "\u3000", delimiter.join(["  "] * 3)])))
            continue
        fields = [draw(st.sampled_from(pools[c])) for c in header]
        if kind == 1 and "short" in irregular:
            fields = fields[:draw(st.integers(1, max(1, len(fields) - 1)))]
        if kind == 2 and "long" in irregular:
            fields += draw(st.lists(st.sampled_from(["", "x", "1"]), min_size=1, max_size=2))
        if kind == 3 and "quoted" in irregular and fields:
            # quoted as it is, or holding the delimiter
            at = draw(st.integers(0, len(fields) - 1))
            fields[at] = draw(st.sampled_from(
                [f'"{fields[at]}"', f'"{fields[at]}{delimiter}x"']))
        lines.append(delimiter.join(fields))
    has_header = draw(st.booleans())
    comments = draw(st.lists(st.sampled_from([
        "# a note", f"{DATA_MAGIC} fingerprint=abc", f"{DATA_MAGIC} fingerprint=zzz",
    ]), max_size=2))
    body = ([delimiter.join(f" {h} " for h in header)] if has_header else []) + lines
    # LF, CRLF or lone-CR line ends, or LF and CRLF mixed
    ending = draw(st.sampled_from(["\n", "\r\n", "\r", None]))
    ends = [ending or draw(st.sampled_from(["\n", "\r\n"])) for _ in comments + body]
    if ends and draw(st.booleans()):
        ends[-1] = ""  # no newline after the last line
    bom = draw(st.sampled_from(["", "\ufeff"]))
    text = bom + "".join(line + end for line, end in zip(comments + body, ends))
    kwargs = {
        "delimiter": delimiter,
        "has_header": has_header,
        "columns": None if has_header else header,
        "filters": filters,
        "apply_filters": apply_filters,
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

    @pytest.mark.parametrize("rows, message", [
        # stream ids are parsed after the other steps, but file order decides
        (["F,A,20,F,s1", "X,A,20,F,1"], "cannot read 's1'"),
        (["F,A,20,F,1", "X,A,20,F,s1"], "'X' is not a category"),
        # a row the unmapped race drops never parses its stream id
        (["F,?,20,F,s1", "X,A,20,F,1"], "'X' is not a category"),
    ])
    def test_earliest_failing_stream_id_decides(self, rows, message):
        text = f"sex,race,age,charge,{STREAM_COLUMN}\n" + "\n".join(rows) + "\n"
        new, ref = read_both(text, make_schema())
        assert new == ref and new[0] == "raised" and message in new[2]

    # a chunk is read column by column unless its shortest row is short or
    # a first field is blank; these rows sit on either side of that test
    CHUNKS = [1, 2, 3, dataio._CHUNK_ROWS]
    HEADER = "days,sex,race,age,charge,out"

    @staticmethod
    def body(k, row, at):
        """Three chunks of ``k`` good rows, ``row`` in place of the
        middle chunk's first, middle or last."""
        lines = [f"{i % 7},{'FM'[i % 2]},A,{20 + i % 50},F,{i % 2}" for i in range(3 * k)]
        lines[k + {"first": 0, "middle": k // 2, "last": k - 1}[at]] = row
        return lines

    @pytest.mark.parametrize("at", ["first", "middle", "last"])
    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    @pytest.mark.parametrize("row, kept", [
        (" ,M,B,30,M,1", 0),  # a blank first field in a kept row
        ("", -1),
        ("   ", -1),
        (" , ,\t, , , ", -1),
    ])
    def test_blank_first_field(self, chunk_rows, at, row, kept):
        lines = self.body(chunk_rows, row, at)
        text = self.HEADER + "\n" + "\n".join(lines) + "\n"
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            new, ref = read_both(text, make_schema())
        assert new == ref and new[0] == "ok" and len(new[2]) == 3 * chunk_rows + kept

    @pytest.mark.parametrize("chunk_rows", CHUNKS)
    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_blank_row_before_a_short_row(self, chunk_rows, offset):
        lines = self.body(chunk_rows, "", "first")
        lines[chunk_rows + offset:chunk_rows + offset + 1] = ["  ", "1,F,A"]
        text = self.HEADER + "\n" + "\n".join(lines) + "\n"
        with mock.patch.object(dataio, "_CHUNK_ROWS", chunk_rows):
            new, ref = read_both(text, make_schema())
        assert new == ref and new[0] == "raised" and "short row" in new[2]


def quoting_schema():
    """Labels ``csv`` must quote under some delimiter: ones holding a
    delimiter or a quote character, and ones with outer blanks."""
    return Schema((
        Variable(Alphabet("grp", ("a,b", 'say "hi"', " pad ")), "D"),
        Variable(Alphabet("kind", ("u;v", "w\tz")), "D"),
        Variable(Alphabet("f", ("x", " y", "z ", "-")), "X"),
        Variable(Alphabet("out", ("no", "yes, really")), "Y"),
    ))


@st.composite
def datasets(draw, schemas=(make_schema,)):
    schema = draw(st.sampled_from(schemas))()
    n = draw(st.integers(1, 30))
    d = draw(st.lists(st.integers(0, schema.nd - 1), min_size=n, max_size=n))
    x = draw(st.lists(st.integers(0, schema.nx - 1), min_size=n, max_size=n))
    y_low = draw(st.sampled_from([-1, 0]))  # -1: apply-mode or mixed records
    y_high = draw(st.sampled_from([-1, schema.ny - 1])) if y_low < 0 else schema.ny - 1
    y = draw(st.lists(st.integers(y_low, y_high), min_size=n, max_size=n))
    sid = draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n))
    return Dataset(schema, np.array(d), np.array(x), np.array(y),
                   stream_ids=np.array(sid, dtype=np.int64))


class TestWriteOracle:
    @settings(max_examples=300, deadline=None)
    @given(datasets(schemas=(make_schema, quoting_schema)),
           st.sampled_from([",", ";", "\t", " ", "-"]), st.sampled_from([None, "abc"]))
    def test_same_bytes(self, dataset, delimiter, fingerprint):
        # "-" is a delimiter that negative stream ids hold
        record = None if fingerprint is None else {"fingerprint": fingerprint}
        assert (written_bytes(write_dataset, dataset, delimiter=delimiter, record=record)
                == written_bytes(reference_write, dataset, delimiter=delimiter,
                                 fingerprint=fingerprint))

    @pytest.mark.parametrize("apply_mode", [False, True])
    def test_same_bytes_past_one_block(self, apply_mode):
        schema = quoting_schema()
        rng = np.random.default_rng(3)
        n = 2 * dataio._WRITE_ROWS + 5
        y = np.full(n, -1) if apply_mode else rng.integers(0, schema.ny, n)
        dataset = Dataset(schema, rng.integers(0, schema.nd, n),
                          rng.integers(0, schema.nx, n), y,
                          stream_ids=rng.permutation(n) - n // 2)
        for delimiter in (",", "\t"):
            written = written_bytes(write_dataset, dataset, delimiter=delimiter)
            assert written == written_bytes(reference_write, dataset,
                                            delimiter=delimiter)
            assert written.count(b"\r\n") == n + 1

    def test_provenance_line_names_the_data_digest(self, tmp_path):
        dataset = Dataset(make_schema(), np.array([0, 3]), np.array([1, 2]),
                          np.array([1, 0]))
        path = str(tmp_path / "out.csv")
        record = {"fingerprint": "abc", "data_sha256": "ab" * 32}
        write_dataset(path, dataset, record=record)
        assert provenance_records(path, "data") == [record]
        with open(path, "rb") as fh:
            fh.readline()
            body = fh.read()
        assert body == written_bytes(reference_write, dataset)
        write_dataset(path, dataset)
        assert provenance_records(path, "data") == []


def kernel_quoting_schema():
    """Two D and two X variables whose composite labels ``csv`` must quote
    (a comma, a quote character) or keep as they are (a leading blank)."""
    return Schema((
        Variable(Alphabet("grp", ("a,b", 'say "hi"')), "D"),
        Variable(Alphabet("kind", (" pad", "u")), "D"),
        Variable(Alphabet("f", ("x", " y")), "X"),
        Variable(Alphabet("g", ('"q"', "1,5", "z")), "X"),
        Variable(Alphabet("out", ("no", "yes, really")), "Y"),
    ))


@st.composite
def kernels(draw):
    """Kernels with zero entries, subnormal and point-mass rows."""
    schema = kernel_quoting_schema()
    shape = (schema.nd, schema.nx, schema.ny, schema.nx * schema.ny)
    weights = draw(hnp.arrays(np.float64, shape,
                              elements=st.just(0.0) | st.floats(0.0, 1.0)))
    weights[weights.sum(axis=3) == 0.0, 0] = 1.0
    return TransformKernel(schema, weights / weights.sum(axis=3, keepdims=True),
                           provenance={"fingerprint": "abc"})


class TestKernelWriterOracle:
    @settings(max_examples=100, deadline=None)
    @given(kernels())
    def test_same_bytes_and_read_back(self, kernel):
        written = written_bytes(write_kernel, kernel)
        assert written == written_bytes(reference_write_kernel, kernel)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "kernel.csv")
            with open(path, "wb") as fh:
                fh.write(written)
            back = read_kernel(path, kernel.schema)
        assert np.array_equal(back.probs, kernel.probs)
        assert back.provenance == {"fingerprint": "abc"}
        # every row holds mass, so every group's label is written, quoted
        assert b'"a,b| pad",' in written and b'"say ""hi""|u",' in written


class TestTrainingSidecar:
    @settings(max_examples=25, deadline=None)
    @given(datasets())
    def test_round_trip_under_its_binding_only(self, dataset):
        binding = {"data_sha256": "ab" * 32, "fingerprint": "f" * 16}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "training.npz")
            write_training(path, dataset, binding)
            back = read_training(path, dataset.schema, binding)
            for name in ("d", "x", "y", "stream_ids"):
                np.testing.assert_array_equal(getattr(back, name),
                                              getattr(dataset, name))
            other = {**binding, "fingerprint": "0" * 16}
            assert read_training(path, dataset.schema, other) is None

    def test_missing_or_unreadable_file_is_none(self, tmp_path):
        schema = make_schema()
        assert read_training(str(tmp_path / "absent.npz"), schema, {}) is None
        (tmp_path / "junk.npz").write_bytes(b"not a zip archive")
        assert read_training(str(tmp_path / "junk.npz"), schema, {}) is None


@pytest.fixture(scope="module")
def bench_inputs():
    """``bench/inputs.py``, which writes the benchmark's data files."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # for its dataclasses
        spec.loader.exec_module(module)
    return module


def path_taken(path, schema, **kwargs):
    """The reader ``read_dataset`` runs on the file at ``path``, "numpy" or
    "csv"; what it returns or raises is checked against the reference."""
    with mock.patch.object(dataio, "_encode_columns",
                           wraps=dataio._encode_columns) as by_csv, \
            mock.patch.object(dataio._PlainFile, "encode", autospec=True,
                              side_effect=dataio._PlainFile.encode) as by_numpy:
        new = outcome(lambda: read_dataset(path, schema, **kwargs))
    assert new == outcome(lambda: reference_read(path, schema, **kwargs))
    assert by_csv.called != by_numpy.called
    return "numpy" if by_numpy.called else "csv"


def compas_file(bench_inputs, path, n=2000, seed=5):
    """A bench-shaped compas file and the preset configuration reading it."""
    bench_inputs.write_compas(str(path), bench_inputs.compas_input(n, seed))
    return preset_config("compas", input_path=str(path))


class TestFilterFirst:
    """On a plain file the filters run on every row, and the other columns
    are encoded on the rows they keep only: a bad value in a row the
    filters drop is never looked at, and in a kept row it raises what the
    row loop raises."""

    HEADER = "sex,race,age,charge,days,score,out"
    GOOD = ["F,A,20,F,0,Low,1", "M,B,30,M,5,High,0", "M,A,50,F,-3,Low,0"]

    @pytest.mark.parametrize("bad, message", [
        ("X,A,20,F", "'X' is not a category of 'sex'"),
        ("F,A,abc,F", "column 'age': cannot read 'abc'"),
    ], ids=["unknown_label", "unparsable_bins_value"])
    @pytest.mark.parametrize("days", ["99", "0"], ids=["filtered_out", "kept"])
    def test_bad_value_raises_only_in_a_kept_row(self, tmp_path, bad, message, days):
        path = tmp_path / "data.csv"
        rows = self.GOOD[:2] + [f"{bad},{days},Low,0"] + self.GOOD[2:]
        path.write_text(self.HEADER + "\n" + "\n".join(rows) + "\n")
        # the records, or the exception and message, of the row loop
        assert path_taken(str(path), make_schema(), filters=FILTERS) == "numpy"
        with mock.patch.object(dataio._PlainFile, "encode", autospec=True,
                               side_effect=dataio._PlainFile.encode) as encode:
            result = outcome(lambda: read_dataset(str(path), make_schema(),
                                                  filters=FILTERS))
        if days == "99":
            assert result[0] == "ok" and len(result[2]) == 3
        else:
            assert result[:2] == ("raised", SchemaMismatchError) and message in result[2]
        (_, filtered, filter_cols), (_, kept, _, _) = (c.args for c in encode.call_args_list)
        assert filtered == slice(1, None) and len(filter_cols) == len(FILTERS)
        assert kept.tolist() == ([1, 2, 4] if days == "99" else [1, 2, 3, 4])


class TestReadPaths:
    """Which reader runs is decided by the file's bytes: files this package
    and the benchmark write are read without ``csv``, so a silent fallback
    would show here, and irregular files still go to ``csv``."""

    def test_transform_outputs(self, tmp_path, bench_inputs):
        compas_file(bench_inputs, tmp_path / "compas.csv")
        raw = preset_dict("compas")
        raw["input"]["path"] = str(tmp_path / "compas.csv")
        raw["discrimination"]["epsilon"] = 0.6  # feasible on 2,000 rows
        raw["objective"] = "l1"
        raw["output"] = {"dir": str(tmp_path / "out")}
        config = tmp_path / "compas.yaml"
        config.write_text(yaml.safe_dump(raw))
        base = ["--config", str(config), "--kernel", str(tmp_path / "out" / "kernel.csv")]
        assert main(["fit", "--config", str(config)]) == 0
        schema = preset_config("compas").schema
        for mode in ("train", "apply"):
            assert main(["transform", *base, "--mode", mode]) == 0
            path = tmp_path / "out" / f"transformed_{mode}.csv"
            provenance, header, row = path.read_bytes().split(b"\n")[:3]
            assert provenance.startswith(b"# fairmap-data") and not provenance.endswith(b"\r")
            assert header.endswith(b"_stream\r") and row.endswith(b"\r")
            assert path_taken(str(path), schema) == "numpy"

    def test_bench_compas_file(self, tmp_path, bench_inputs):
        path = tmp_path / "compas.csv"
        cfg = compas_file(bench_inputs, path)
        assert path_taken(str(path), cfg.schema, filters=cfg.filters) == "numpy"

    def test_headerless_padded_adult_file(self, tmp_path, bench_inputs):
        path = tmp_path / "adult.data"
        bench_inputs.write_adult(str(path), bench_inputs.adult_input(2000, 5))
        assert b", Private, " in path.read_bytes()
        cfg = preset_config("adult", input_path=str(path))
        assert not cfg.has_header
        assert path_taken(str(path), cfg.schema, has_header=False, columns=cfg.columns,
                          filters=cfg.filters) == "numpy"

    @pytest.mark.parametrize("rows", [
        ["F,A,20,F", "", "M,B,30,M"],  # a blank row
        ["F,A,20,F", "M,B"],  # a short row
        ["F,A", "20,F"],  # two short rows with one row's fields between them
        ["F,A,20,F", "M,B,30,M,1"],  # a long row
        ["F,A,20,F", "M,B,30,M", "  ,B,30,M"],  # a blank first field
        ['F,A,20,"F"', "M,B,30,M"],  # a quoted field
        ["F,A,20,F\rM,B,30,M"],  # a lone CR
    ])
    def test_irregular_files_go_to_csv(self, tmp_path, rows):
        path = tmp_path / "data.csv"
        path.write_bytes(("sex,race,age,charge\n" + "\n".join(rows) + "\n").encode())
        assert path_taken(str(path), make_schema()) == "csv"

    def test_quoted_labels_go_to_csv(self, tmp_path):
        schema = quoting_schema()
        n = schema.nd * schema.nx * schema.ny
        cells = np.arange(n)
        dataset = Dataset(schema, cells // (schema.nx * schema.ny),
                          cells // schema.ny % schema.nx, cells % schema.ny)
        path = str(tmp_path / "out.csv")
        write_dataset(path, dataset)
        assert path_taken(path, schema) == "csv"

    def test_bucket_collisions_fall_back_to_unique(self, tmp_path, bench_inputs):
        # every key past the table's size hashes to bucket 0
        path = tmp_path / "compas.csv"
        cfg = compas_file(bench_inputs, path, n=500)
        keys = np.array([5, 1 << 40, 3 << 40, 1 << 40, 7 << 50, 5], dtype=np.uint64)
        with mock.patch.object(dataio, "_HASH", np.uint64(0)), \
                mock.patch.object(np, "unique", wraps=np.unique) as unique:
            distinct, codes = dataio._compact(keys)
            assert unique.call_count == 1
            assert path_taken(str(path), cfg.schema, filters=cfg.filters) == "numpy"
            assert unique.call_count > 1
        assert np.array_equal(distinct[codes], keys) and distinct.size == 4

    def test_digit_ids_stop_where_int64_could_overflow(self):
        # 19 digits can pass 2^63 - 1; those, and anything but an optional
        # minus and ASCII digits, are left to int()
        fields = [b"0", b"-12", b"007", b"123456789012345678", b"-999999999999999999",
                  b"9999999999999999999", b"+5", b" 1", b"-", b"", "١٢".encode()]
        data = b"".join(fields)
        ends = np.cumsum([len(f) for f in fields])
        ids, parsed = dataio._digit_ids(np.frombuffer(data + bytes(8), dtype=np.uint8),
                                        ends - [len(f) for f in fields], ends)
        assert parsed.tolist() == [True] * 5 + [False] * 6
        assert ids[parsed].tolist() == [int(f) for f in fields[:5]]

    @pytest.mark.parametrize("quoted", [False, True])
    def test_int64_bounds_read_back(self, tmp_path, quoted):
        # 19-digit ids go to int(); the two ends of int64 are ids, the
        # values past them are refused (see TestReadOracle)
        first = '"F"' if quoted else "F"
        path = tmp_path / "ids.csv"
        path.write_text(f"sex,race,age,charge,{STREAM_COLUMN}\n"
                        f"{first},A,20,F,{2**63 - 1}\nM,B,30,M,{-(2**63)}\n")
        assert path_taken(str(path), make_schema()) == ("csv" if quoted else "numpy")
        ids = read_dataset(str(path), make_schema()).stream_ids
        assert ids.dtype == np.int64 and ids.tolist() == [2**63 - 1, -(2**63)]

    @pytest.mark.parametrize("rows, message", [
        (["F,A,20,F,1", f"M,B,30,M,{2**63}"], f"line 4: stream id {2**63} is outside"),
        ([f'"F",A,20,F,{-(2**63) - 1}'], f"line 3: stream id {-(2**63) - 1} is outside"),
        # a row the unmapped race drops never parses its stream id
        (["F,?,20,F,99999999999999999999", "X,A,20,F,1"], "'X' is not a category"),
    ])
    def test_ids_past_int64_refused_naming_the_line(self, rows, message):
        # the row loop's exception, on both readers (a quote sends the
        # second file to csv), after a provenance line
        text = (f"{DATA_MAGIC} fingerprint=abc\nsex,race,age,charge,{STREAM_COLUMN}\n"
                + "\n".join(rows) + "\n")
        new, ref = read_both(text, make_schema())
        assert new == ref and new[0] == "raised" and message in new[2]

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize("has_header", [True, False])
    def test_byte_order_mark_is_skipped(self, tmp_path, has_header, quoted):
        # spreadsheet programs start a UTF-8 export with one
        first = '"F"' if quoted else "F"
        text = (f"\ufeff{DATA_MAGIC} fingerprint=abc\n"
                + ("sex,race,age,charge\n" if has_header else "")
                + f"{first},A,20,F\nM,B,30,M\n")
        path = tmp_path / "bom.csv"
        path.write_text(text, encoding="utf-8")
        kwargs = {} if has_header else {"has_header": False,
                                        "columns": ["sex", "race", "age", "charge"]}
        assert path_taken(str(path), make_schema(), **kwargs) == ("csv" if quoted else "numpy")
        ds = read_dataset(str(path), make_schema(), **kwargs)
        assert ds.d.tolist() == [0, 4] and ds.x.tolist() == [0, 3]
        assert provenance_records(str(path), "data") == [{"fingerprint": "abc"}]
