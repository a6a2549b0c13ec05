"""End-to-end command-line pipeline tests on synthetic data."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fairmap import cli
from fairmap.audit import audit_discrimination
from fairmap.cli import main
from fairmap.config import config_from_dict, load_config
from fairmap.constraints import DiscriminationSpec
from fairmap.dataio import (
    file_sha256,
    provenance_records,
    read_dataset,
    read_kernel,
    write_kernel,
    write_training,
)
from fairmap.errors import SchemaMismatchError
from fairmap.optimizer import TransformKernel, identity_kernel
from fairmap.presets import preset_dict

from conftest import make_schema_multi, random_pmf
from test_config import tiny_config_dict


def write_synthetic_csv(path, n=400, seed=5, with_outcome=True):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        grp = rng.choice(["a", "b"])
        f1 = rng.choice(["u", "v"])
        rate = {"a": 0.7, "b": 0.45}[grp] + (0.05 if f1 == "v" else 0.0)
        out = "1" if rng.random() < rate else "0"
        row = {"grp": grp, "f1": f1}
        if with_outcome:
            row["out"] = out
        rows.append(row)
    fields = ["grp", "f1"] + (["out"] if with_outcome else [])
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.fixture
def workdir(tmp_path):
    data = write_synthetic_csv(tmp_path / "data.csv")
    raw = tiny_config_dict(path=str(data))
    raw["output"] = {"dir": str(tmp_path / "out")}
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(raw))
    return tmp_path, cfg_path


class TestFit:
    def test_fit_writes_kernel_and_report(self, workdir):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        out = tmp / "out"
        report = json.loads((out / "fit_report.json").read_text())
        assert report["status"] == "optimal"
        assert report["residual"] <= 1e-6
        config = load_config(str(cfg))
        kernel = read_kernel(str(out / "kernel.csv"), config.schema)
        sums = kernel.probs.sum(axis=3)
        assert np.abs(sums - 1.0).max() <= 1e-9
        assert kernel.provenance["fingerprint"] == config.fingerprint()
        assert kernel.provenance["data_sha256"] == file_sha256(config.input_path)
        n_records = len(read_dataset(config.input_path, config.schema))
        assert kernel.provenance["n_records"] == str(n_records) == str(report["n_records"])

    def test_infeasible_exit_code(self, workdir):
        tmp, cfg = workdir
        raw = yaml.safe_load(cfg.read_text())
        raw["discrimination"]["epsilon"] = 0.0
        raw["distortion"]["budget"]["c"] = 0.0
        cfg2 = tmp / "tight.yaml"
        cfg2.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg2)]) == 2
        report = json.loads((tmp / "out" / "fit_report.json").read_text())
        assert report["status"] == "infeasible"
        by_family = report["diagnostics"]["violation_by_family"]
        assert sum(by_family.values()) == pytest.approx(report["certificate"], rel=1e-12)

    def test_kl_infinite_on_feasible_set_exit_code(self, tmp_path):
        # group b never has outcome 1 and may not gain it, so the
        # pairwise bound sends every outcome-1 record of group a to 0: no
        # feasible transform gives the populated outcome-1 cells any mass
        data = tmp_path / "data.csv"
        rows = ["a,u,1", "a,u,0", "a,v,1", "a,v,0", "b,u,0", "b,v,0"] * 10
        data.write_text("grp,f1,out\n" + "\n".join(rows) + "\n")
        raw = tiny_config_dict(path=str(data))
        raw["objective"] = "kl"
        raw["distortion"]["metric"]["attributes"]["out"]["values"]["0"]["1"] = 1e4
        raw["distortion"]["budget"]["c"] = 2.0
        raw["output"] = {"dir": str(tmp_path / "out")}
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg)]) == 5
        out = tmp_path / "out"
        report = json.loads((out / "fit_report.json").read_text())
        assert report["status"] == "infinite_objective"
        assert report["diagnostics"]["uncovered_cell"] in ("x=u y=1", "x=v y=1")
        assert not (out / "kernel.csv").exists()
        # a sweep runs through such points and still succeeds
        assert main(["sweep", "--config", str(cfg), "--eps-grid", "0.1,0.5"]) == 0
        sweep = json.loads((out / "sweep.json").read_text())
        assert [e["status"] for e in sweep["entries"]] == ["infinite_objective"] * 2

    def test_iteration_limit_message_reaches_the_report(self, workdir):
        tmp, cfg = workdir
        raw = yaml.safe_load(cfg.read_text())
        raw["solver"] = {"max_iters": 1}
        cfg2 = tmp / "stopped.yaml"
        cfg2.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg2)]) == 0
        report = json.loads((tmp / "out" / "fit_report.json").read_text())
        assert report["status"] == "iteration_limit"
        assert "1 simplex iterations" in report["diagnostics"]["message"]

    def test_missing_input_is_io_error(self, workdir):
        tmp, cfg = workdir
        raw = yaml.safe_load(cfg.read_text())
        raw["input"]["path"] = str(tmp / "absent.csv")
        cfg2 = tmp / "missing.yaml"
        cfg2.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg2)]) == 4

    def test_kl_fit_reports_its_lower_bound(self, workdir):
        tmp, cfg = workdir
        raw = yaml.safe_load(cfg.read_text())
        raw["objective"] = "kl"
        cfg2 = tmp / "kl.yaml"
        cfg2.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg2)]) == 0
        report = json.loads((tmp / "out" / "fit_report.json").read_text())
        tol = load_config(str(cfg2)).solver.tol
        assert report["status"] == "optimal"
        assert report["certificate"] <= tol
        assert report["objective"] <= report["diagnostics"]["lower_bound"] + tol

    @pytest.mark.parametrize("rows", [
        ["a,u,1,0", "b,v,0,x1"],  # a stream id that is no integer
        ["a,u,1,0", "b,abc,0,1"],  # a value the bins cannot parse
        ["a,u,1,0", "b,nan,0,1"],  # a value no bin holds
    ])
    def test_unparsable_field_is_data_error(self, tmp_path, rows, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("grp,f1,out,_stream\n" + "\n".join(rows) + "\n")
        raw = tiny_config_dict(path=str(data))
        raw["schema"]["variables"][1]["quantizer"] = {
            "kind": "bins", "edges": [0.5], "labels": ["u", "v"]}
        raw["output"] = {"dir": str(tmp_path / "out")}
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg)]) == 4
        assert "cannot read" in capsys.readouterr().err

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("objective: nope\n")
        assert main(["fit", "--config", str(bad)]) == 3

    def test_independent_data_fits_to_identity(self, tmp_path):
        # when groups and outcomes are unrelated, the identity transform
        # already satisfies every constraint and costs nothing
        rng = np.random.default_rng(77)
        data = tmp_path / "fair.csv"
        with open(data, "w") as fh:
            fh.write("grp,f1,out\n")
            for _ in range(2000):
                fh.write(
                    f"{rng.choice(['a', 'b'])},{rng.choice(['u', 'v'])},"
                    f"{rng.integers(2)}\n"
                )
        raw = tiny_config_dict(path=str(data), eps=0.25)
        raw["output"] = {"dir": str(tmp_path / "out")}
        cfg = tmp_path / "fair.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        assert report["status"] == "optimal"
        assert report["objective"] <= 1e-9
        config = load_config(str(cfg))
        kernel = read_kernel(str(tmp_path / "out" / "kernel.csv"), config.schema)
        ident = identity_kernel(config.schema)
        np.testing.assert_allclose(kernel.probs, ident.probs, atol=1e-7)


class TestTransform:
    def fit(self, workdir):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        return tmp, cfg, tmp / "out" / "kernel.csv"

    def test_seeded_runs_are_bit_identical(self, workdir):
        tmp, cfg, kernel = self.fit(workdir)
        out1 = tmp / "t1"
        out2 = tmp / "t2"
        for out in (out1, out2):
            assert main([
                "transform", "--config", str(cfg), "--kernel", str(kernel),
                "--mode", "train", "--out-dir", str(out),
            ]) == 0
        h1 = hashlib.sha256((out1 / "transformed_train.csv").read_bytes())
        h2 = hashlib.sha256((out2 / "transformed_train.csv").read_bytes())
        assert h1.hexdigest() == h2.hexdigest()
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--mode", "train", "--out-dir", str(tmp / "t3"),
            "--seed-override", "99",
        ]) == 0
        h3 = hashlib.sha256((tmp / "t3" / "transformed_train.csv").read_bytes())
        assert h3.hexdigest() != h1.hexdigest()

    # sha256 of the transformed files for the fixed kernel below on the
    # ``workdir`` data; a changed per-record stream changes them
    PINNED_TRAIN = "37b71291aab9a740e7e6b3877a73d5371e73e7c6e7dcc66d596c06a3deab2d19"
    PINNED_APPLY = "e42d5a79aafcadbe9ea246a626e9cf2ae2ad8c71a5f346ec2d8804b248f057ab"

    def test_seeded_outputs_match_pinned_digests(self, workdir):
        tmp, cfg = workdir
        config = load_config(str(cfg))
        rows = np.array([[0.4, 0.3, 0.2, 0.1], [0.1, 0.6, 0.1, 0.2],
                         [0.25, 0.25, 0.25, 0.25], [0.0, 0.5, 0.0, 0.5]])
        probs = np.stack([rows, rows[::-1]]).reshape(2, 2, 2, 4)
        kpath = tmp / "fixed.csv"
        write_kernel(str(kpath), TransformKernel(
            config.schema, probs,
            {"fingerprint": config.fingerprint(), "objective": "l1", "tol": 1e-6},
        ))
        digests = {}
        for mode in ("train", "apply"):
            assert main([
                "transform", "--config", str(cfg), "--kernel", str(kpath),
                "--mode", mode, "--out-dir", str(tmp / "tf"),
                "--seed-override", "7",
            ]) == 0
            data = (tmp / "tf" / f"transformed_{mode}.csv").read_bytes()
            digests[mode] = hashlib.sha256(data).hexdigest()
        assert digests == {"train": self.PINNED_TRAIN, "apply": self.PINNED_APPLY}

    def test_identity_kernel_reproduces_columns(self, workdir):
        tmp, cfg = workdir
        config = load_config(str(cfg))
        kpath = tmp / "identity.csv"
        ident = identity_kernel(config.schema)
        ident = type(ident)(
            config.schema, ident.probs,
            {"fingerprint": config.fingerprint(), "objective": "l1", "tol": 1e-6},
        )
        write_kernel(str(kpath), ident)
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kpath),
            "--mode", "train", "--out-dir", str(tmp / "ti"),
        ]) == 0
        src = read_dataset(str(config.input_path), config.schema)
        out = read_dataset(
            str(tmp / "ti" / "transformed_train.csv"), config.schema
        )
        assert np.array_equal(src.d, out.d)
        assert np.array_equal(src.x, out.x)
        assert np.array_equal(src.y, out.y)

    def test_apply_mode_handles_missing_outcomes(self, workdir):
        tmp, cfg, kernel = self.fit(workdir)
        unlabeled = write_synthetic_csv(tmp / "new.csv", n=60, seed=9,
                                        with_outcome=False)
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--mode", "apply", "--input", str(unlabeled),
            "--out-dir", str(tmp / "ta"),
        ]) == 0
        out_file = tmp / "ta" / "transformed_apply.csv"
        header = next(line for line in out_file.read_text().splitlines()
                      if not line.startswith("#"))
        assert header.split(",") == ["grp", "f1", "_stream"]
        # train mode on the same unlabeled data must fail as a data error
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--mode", "train", "--input", str(unlabeled),
            "--out-dir", str(tmp / "tb"),
        ]) == 4

    @pytest.mark.parametrize("edit, named", [
        (lambda f: [f[:5] + ["abc"]], "column 'prob'"),
        (lambda f: [f[:5]], "5 fields, expected 6"),
        (lambda f: [["zz"] + f[1:]], "column 'd'"),
        (lambda f: [f[:5] + ["nan"]], "column 'prob'"),
        (lambda f: [f[:5] + ["-0.5"]], "column 'prob'"),
        # a repeat once overwrote the first: a row listing mass 2 read back
        (lambda f: [f, f], "line 4: repeats the transition of line 3"),
    ], ids=["unparsable_prob", "short_line", "unknown_label", "nan_prob", "negative_prob",
            "repeated_transition"])
    def test_malformed_kernel_line_is_data_error(self, workdir, capsys, edit, named):
        tmp, cfg, kernel = self.fit(workdir)
        lines = kernel.read_text().splitlines()
        # the first transition, replaced by the lines of the edit
        lines[2:3] = [",".join(f) for f in edit(lines[2].split(","))]
        kernel.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--out-dir", str(tmp / "tk"),
        ]) == 4
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "line 3" in line and named in line

    @pytest.mark.parametrize("edit, named", [
        (lambda f, g: [f, g[:5] + ["abc"], f], "line 4, column 'prob'"),
        (lambda f, g: [f, f, ["zz"] + g[1:]], "line 4: repeats the transition of line 3"),
        (lambda f, g: [f, g[:5], ["zz"] + f[1:]], "line 4: 5 fields, expected 6"),
        # line 3 parsed f's x label; a label never seen fails where it first appears
        (lambda f, g: [f, [f[0], "zz"] + g[2:], [f[0], "zz"] + f[2:]], "line 4, column 'x'"),
    ], ids=["bad_prob", "repeat", "short_line", "unknown_label"])
    def test_first_bad_kernel_line_after_a_good_one_decides(self, workdir, capsys, edit,
                                                            named):
        # kernel labels are parsed once each, not once per line
        tmp, cfg, kernel = self.fit(workdir)
        lines = kernel.read_text().splitlines()
        first, second = (line.split(",") for line in lines[2:4])
        lines[2:4] = [",".join(f) for f in edit(first, second)]
        kernel.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--out-dir", str(tmp / "tk"),
        ]) == 4
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {kernel} ") and named in line

    def test_kernel_entries_off_by_rounding_read_back(self, workdir):
        # solver kernels hold entries such as 1 + 2**-52 and -1e-16
        tmp, cfg = workdir
        schema = load_config(str(cfg)).schema
        probs = identity_kernel(schema).probs.copy()
        probs[0, 0, 0, 0] = np.nextafter(1.0, 2.0)
        probs[0, 0, 1, :2] = [-1e-16, 1.0 + 1e-16]
        kpath = tmp / "rounded.csv"
        kernel = TransformKernel(schema, probs, {"fingerprint": "f"})
        write_kernel(str(kpath), kernel)
        np.testing.assert_array_equal(read_kernel(str(kpath), schema).probs, kernel.probs)
        assert kernel.probs[0, 0, 0, 0] > 1.0

    def test_provenance_mismatch_refused_unless_overridden(self, workdir):
        tmp, cfg, kernel = self.fit(workdir)
        raw = yaml.safe_load(cfg.read_text())
        raw["discrimination"]["epsilon"] = 0.4
        cfg2 = tmp / "other.yaml"
        cfg2.write_text(yaml.safe_dump(raw))
        args = [
            "transform", "--config", str(cfg2), "--kernel", str(kernel),
            "--mode", "train", "--out-dir", str(tmp / "tp"),
        ]
        assert main(args) == 3
        assert main(args + ["--allow-provenance-mismatch"]) == 0


class TestAuditAndSweep:
    def fit(self, workdir):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        return tmp, cfg, tmp / "out" / "kernel.csv"

    def test_audit_analytic_sections(self, workdir):
        tmp, cfg, kernel = self.fit(workdir)
        assert main([
            "audit", "--config", str(cfg), "--kernel", str(kernel),
            "--out-dir", str(tmp / "audit"),
        ]) == 0
        payload = json.loads((tmp / "audit" / "audit_report.json").read_text())
        for key in ("discrimination_before", "discrimination_after",
                    "utility", "advantage", "robustness"):
            assert key in payload
        assert payload["discrimination_after"]["max_j"] <= 0.3 + 1e-6
        adv = payload["advantage"]
        assert adv["after"] <= 1.0 + adv["epsilon"] + 0.05
        assert (tmp / "audit" / "cohort_deltas.csv").exists()

    def test_audit_empirical_sections(self, workdir):
        tmp, cfg, kernel = self.fit(workdir)
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--mode", "train", "--out-dir", str(tmp / "tr"),
        ]) == 0
        assert main([
            "audit", "--config", str(cfg), "--kernel", str(kernel),
            "--transformed", str(tmp / "tr" / "transformed_train.csv"),
            "--out-dir", str(tmp / "audit2"),
        ]) == 0
        payload = json.loads((tmp / "audit2" / "audit_report.json").read_text())
        assert "discrimination_empirical" in payload
        assert "distortion" in payload
        assert payload["distortion"]["mean"] <= 0.8 + 0.1  # near the budget
        assert "warnings" not in payload

    def test_audit_names_a_group_it_skipped(self, workdir):
        # group "c" is in the schema but not in the data: every report
        # skips it, and the report says so once, by its label
        tmp, cfg = workdir
        raw = yaml.safe_load(cfg.read_text())
        raw["schema"]["variables"][0]["categories"] = ["a", "b", "c"]
        cfg.write_text(yaml.safe_dump(raw))
        _, _, kernel = self.fit(workdir)
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--mode", "train", "--out-dir", str(tmp / "tr"),
        ]) == 0
        assert main([
            "audit", "--config", str(cfg), "--kernel", str(kernel),
            "--transformed", str(tmp / "tr" / "transformed_train.csv"),
            "--out-dir", str(tmp / "a8"),
        ]) == 0
        payload = json.loads((tmp / "a8" / "audit_report.json").read_text())
        # the transformed joint has no mass on group c either, so the
        # robustness section is left out, and the report says why
        assert payload["warnings"] == [
            "group 'c' has zero mass; skipped",
            "cell d='c' y='0' has zero mass after the transform; robustness skipped",
        ]
        assert "robustness" not in payload
        for section in ("before", "after", "empirical"):
            assert set(payload[f"discrimination_{section}"]["rates"]) == {"a", "b"}

    def test_audit_identity_deltas_zero(self, workdir):
        tmp, cfg = workdir
        config = load_config(str(cfg))
        kpath = tmp / "identity.csv"
        ident = identity_kernel(config.schema)
        ident = type(ident)(
            config.schema, ident.probs, {"fingerprint": config.fingerprint()}
        )
        write_kernel(str(kpath), ident)
        assert main([
            "audit", "--config", str(cfg), "--kernel", str(kpath),
            "--out-dir", str(tmp / "audit3"),
        ]) == 0
        body = [
            line
            for line in (tmp / "audit3" / "cohort_deltas.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        rows = list(csv.DictReader(body))
        assert rows
        assert all(abs(float(r["delta"])) <= 1e-9 for r in rows)

    def test_audit_of_apply_mode_artifact(self, workdir):
        tmp, cfg, kernel = self.fit(workdir)
        unlabeled = write_synthetic_csv(tmp / "new.csv", n=80, seed=13,
                                        with_outcome=False)
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--mode", "apply", "--input", str(unlabeled),
            "--out-dir", str(tmp / "ta2"),
        ]) == 0
        assert main([
            "audit", "--config", str(cfg), "--kernel", str(kernel),
            "--transformed", str(tmp / "ta2" / "transformed_apply.csv"),
            "--out-dir", str(tmp / "a6"),
        ]) == 0
        payload = json.loads((tmp / "a6" / "audit_report.json").read_text())
        assert "note" in payload and "feature_drift_l1" in payload

    def test_audit_requires_an_artifact(self, workdir):
        tmp, cfg, _ = self.fit(workdir)
        assert main([
            "audit", "--config", str(cfg), "--out-dir", str(tmp / "a4"),
        ]) == 3

    def test_audit_without_artifact_refused_before_reading(self, workdir, capsys):
        tmp, cfg = workdir
        raw = yaml.safe_load(cfg.read_text())
        raw["input"]["path"] = str(tmp / "missing.csv")
        cfg2 = tmp / "missing.yaml"
        cfg2.write_text(yaml.safe_dump(raw))
        assert main(["audit", "--config", str(cfg2), "--out-dir", str(tmp / "a7")]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "--kernel" in line

    def test_audit_refuses_foreign_transformed_file(self, workdir):
        tmp, cfg, kernel = self.fit(workdir)
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--mode", "train", "--out-dir", str(tmp / "tx"),
        ]) == 0
        raw = yaml.safe_load(cfg.read_text())
        raw["discrimination"]["epsilon"] = 0.5
        cfg2 = tmp / "foreign.yaml"
        cfg2.write_text(yaml.safe_dump(raw))
        args = [
            "audit", "--config", str(cfg2),
            "--transformed", str(tmp / "tx" / "transformed_train.csv"),
            "--out-dir", str(tmp / "a5"),
        ]
        assert main(args) == 3
        assert main(args + ["--allow-provenance-mismatch"]) == 0

    def test_pairwise_keys_split_back_into_their_groups(self, rng):
        # composite group labels join their parts with "|" themselves
        schema = make_schema_multi()
        report = audit_discrimination(random_pmf(schema, rng),
                                      DiscriminationSpec(mode="pairwise", epsilon=0.1))
        keys = cli._discrimination_section(report, schema)["pairwise_j"]
        groups = {schema.d_label(d) for d in range(schema.nd)}
        assert len(keys) == len(report.pairwise) == 2 * schema.nd * (schema.nd - 1)
        for key in keys:
            y, d1, d2 = key.split(",")
            assert y in ("y=0", "y=1")
            assert d1.startswith("d1=") and d2.startswith("d2=")
            assert d1[3:] in groups and d2[3:] in groups and d1[3:] != d2[3:]

    def test_sweep_outputs(self, workdir):
        tmp, cfg, _ = self.fit(workdir)
        assert main([
            "sweep", "--config", str(cfg), "--eps-grid", "0.05,0.2,0.5,1.0",
            "--out-dir", str(tmp / "sweep"),
        ]) == 0
        payload = json.loads((tmp / "sweep" / "sweep.json").read_text())
        assert payload["monotone_nonincreasing"] is True
        lines = (tmp / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0].startswith("# fairmap-report fingerprint=")
        assert lines[1] == "epsilon,status,objective"
        assert len(lines) == 6
        # the points are solved from the largest epsilon down, but both
        # files follow the grid
        grid = [0.05, 0.2, 0.5, 1.0]
        assert [float(line.split(",")[0]) for line in lines[2:]] == grid
        assert [e["epsilon"] for e in payload["entries"]] == grid

    @pytest.mark.parametrize("grid, named", [
        ("abc", "'abc'"), ("0.1,x", "'x'"), ("nan", "finite"), ("0.1,inf", "finite"),
    ])
    def test_sweep_refuses_unparsable_grid(self, workdir, capsys, grid, named):
        tmp, cfg = workdir
        assert main([
            "sweep", "--config", str(cfg), "--eps-grid", grid,
            "--out-dir", str(tmp / "sweep"),
        ]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and named in line

    @pytest.mark.parametrize("strategy", ["sof_fix_conditional", "sof_alternating"])
    def test_sweep_refuses_factorized_strategies(self, workdir, capsys, strategy):
        tmp, cfg = workdir
        raw = yaml.safe_load(cfg.read_text())
        raw.setdefault("solver", {})["strategy"] = strategy
        cfg2 = tmp / "sof.yaml"
        cfg2.write_text(yaml.safe_dump(raw))
        assert main([
            "sweep", "--config", str(cfg2), "--eps-grid", "0.2,0.5",
            "--out-dir", str(tmp / "sweep"),
        ]) == 3
        assert strategy in capsys.readouterr().err
        assert not (tmp / "sweep" / "sweep.csv").exists()


class TestProvenance:
    """Each artifact starts with one provenance record; ``transform`` and
    ``audit`` check the records before they parse anything."""

    def test_each_artifact_starts_with_the_record_its_command_built(self, workdir):
        tmp, cfg = workdir
        config = load_config(str(cfg))
        out = tmp / "out"
        kernel = str(out / "kernel.csv")
        assert main(["fit", "--config", str(cfg)]) == 0
        for mode in ("train", "apply"):
            assert main(["transform", "--config", str(cfg), "--kernel", kernel,
                         "--mode", mode]) == 0
        assert main(["audit", "--config", str(cfg), "--kernel", kernel,
                     "--transformed", str(out / "transformed_train.csv")]) == 0
        assert main(["sweep", "--config", str(cfg), "--eps-grid", "0.2,0.5"]) == 0
        fingerprint, digest = config.fingerprint(), file_sha256(config.input_path)
        n_records = json.loads((out / "fit_report.json").read_text())["n_records"]
        data = ("data", {"fingerprint": fingerprint, "data_sha256": digest})
        report = ("report", {"fingerprint": fingerprint})
        built = {
            "kernel.csv": ("kernel", {
                "fingerprint": fingerprint, "objective": config.objective,
                "tol": str(config.solver.tol), "data_sha256": digest,
                "n_records": str(n_records)}),
            "transformed_train.csv": data, "transformed_apply.csv": data,
            "cohort_deltas.csv": report, "sweep.csv": report,
        }
        for name, (kind, record) in built.items():
            first = (out / name).read_text().splitlines()[0]
            assert first.startswith(f"# fairmap-{kind} ")
            assert provenance_records(str(out / name), kind) == [record]

    def test_kernel_of_another_schema_refused_before_its_labels(self, workdir, capsys):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        kernel = str(tmp / "out" / "kernel.csv")
        raw = yaml.safe_load(cfg.read_text())
        raw["schema"]["variables"][0]["categories"] = ["a", "c"]
        other = tmp / "other.yaml"
        other.write_text(yaml.safe_dump(raw))
        for argv in (["transform", "--config", str(other), "--kernel", kernel],
                     ["audit", "--config", str(other), "--kernel", kernel]):
            capsys.readouterr()
            assert main(argv + ["--out-dir", str(tmp / "o")]) == 3
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("error: kernel was fit under fingerprint")
            # past the check, the kernel's group label "b" is unknown
            assert main(argv + ["--out-dir", str(tmp / "o"),
                                "--allow-provenance-mismatch"]) == 4

    def test_second_provenance_line_refused(self, workdir, capsys):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        kernel = tmp / "out" / "kernel.csv"
        assert main(["transform", "--config", str(cfg), "--kernel", str(kernel),
                     "--mode", "train", "--out-dir", str(tmp / "t")]) == 0
        transformed = tmp / "t" / "transformed_train.csv"
        for path in (transformed, kernel):
            first = path.read_text().splitlines(keepends=True)[0]
            path.write_text(first + path.read_text())  # the same record twice
        for argv in (
            ["audit", "--config", str(cfg), "--transformed", str(transformed)],
            ["transform", "--config", str(cfg), "--kernel", str(kernel)],
        ):
            for extra in ([], ["--allow-provenance-mismatch"]):
                capsys.readouterr()
                assert main(argv + ["--out-dir", str(tmp / "o")] + extra) == 3
                [line] = capsys.readouterr().err.splitlines()
                assert line.startswith("error: ") and "2 provenance lines" in line


class TestPresetsAndValidate:
    def test_presets_listing_and_dump(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "compas" in out and "adult" in out
        assert main(["presets", "--name", "compas"]) == 0
        dumped = capsys.readouterr().out
        parsed = yaml.safe_load(dumped)
        assert parsed["objective"] == "kl"

    def test_validate_prints_fingerprint(self, workdir, capsys):
        _, cfg = workdir
        assert main(["validate", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "# fingerprint:" in out

    @pytest.mark.parametrize("name", ["compas", "adult", "test"])
    def test_validate_output_validates_to_itself(self, tmp_path, capsys, name):
        raw = tiny_config_dict() if name == "test" else preset_dict(name)
        source = tmp_path / "source.yaml"
        source.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(source)]) == 0
        first = capsys.readouterr().out
        filled = tmp_path / "filled.yaml"
        filled.write_text(first)
        assert main(["validate", "--config", str(filled)]) == 0
        assert capsys.readouterr().out == first

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema: {variables: []}\n")
        assert main(["validate", "--config", str(bad)]) == 3


def _without_categories(raw):
    raw["schema"]["variables"][0].pop("categories")


def _pairwise_without_d1(raw):
    raw["discrimination"]["epsilon"] = [{"y": "1", "d2": "b", "value": 0.2}]


def _tol_not_a_number(raw):
    raw["solver"] = {"tol": "abc"}


def _solver_not_a_mapping(raw):
    raw["solver"] = 5


def _misspelled_section(raw):
    raw["discrimnation"] = raw.pop("discrimination")


def _misspelled_nested_key(raw):
    raw["discrimination"]["epsilonn"] = raw["discrimination"].pop("epsilon")


def _misspelled_attribute(raw):
    attrs = raw["distortion"]["metric"]["attributes"]
    attrs["f11"] = attrs.pop("f1")


def _scalar_between(raw):
    raw["schema"]["filters"] = [{"column": "f1", "op": "between", "value": 5}]


def _string_in(raw):
    raw["schema"]["filters"] = [{"column": "f1", "op": "in", "value": "abc"}]


def _expected_budget_without_c(raw):
    raw["distortion"]["budget"] = {"mode": "expected"}


def _nan_penalty(raw):
    raw["distortion"]["metric"]["attributes"]["f1"]["penalties"] = {1: float("nan")}


def _nan_rule_value(raw):
    raw["distortion"]["metric"] = {"kind": "rule_table", "rules": [
        {"value": float("nan"), "if_all": [{"var": "f1", "abs_jump": 1}]}]}


def _nan_budget(raw):
    raw["distortion"]["budget"]["c"] = float("nan")


def _nan_pair_budget(raw):
    raw["distortion"]["budget"] = {"mode": "thresholded", "pairs": [[1.0, float("nan")]]}


def _inf_budget(raw):
    raw["distortion"]["budget"]["c"] = float("inf")


def _inf_pair_budget(raw):
    raw["distortion"]["budget"] = {"mode": "thresholded", "pairs": [[1.0, float("inf")]]}


def _nan_threshold(raw):
    raw["distortion"]["budget"] = {"mode": "thresholded", "pairs": [[float("nan"), 0.1]]}


def _negative_threshold(raw):
    raw["distortion"]["budget"] = {"mode": "thresholded", "pairs": [[-1.0, 0.0]]}


def _nan_tol(raw):
    raw["solver"] = {"tol": float("nan")}


def _negative_max_iters(raw):
    # l1 once died in HiGHS's setOptionValue, KL stopped at once uncertified
    raw["solver"] = {"max_iters": -5}


def _zero_max_outer(raw):
    raw["solver"] = {"max_outer": 0}


def _nan_target(raw):
    raw["discrimination"] = {"mode": "target", "epsilon": 0.3, "target": [float("nan"), 0.5]}


def _empty_delimiter(raw):
    # fit died with a TypeError from csv.reader
    raw["input"]["delimiter"] = ""


def _two_char_delimiter(raw):
    raw["input"]["delimiter"] = ";;"


def _quote_delimiter(raw):
    # fit once exited 4 naming a missing column
    raw["input"]["delimiter"] = '"'


def _newline_delimiter(raw):
    raw["input"]["delimiter"] = "\n"


def _cr_delimiter(raw):
    raw["input"]["delimiter"] = "\r"


def _separator_in_a_group(raw):
    # "x|y" joined with a second group variable's "m" is "x|y|m", which a
    # kernel file could not name unambiguously
    raw["schema"]["variables"][0]["categories"] = ["x|y", "z"]
    raw["schema"]["variables"].insert(
        1, {"name": "sex", "role": "D", "categories": ["m", "f"]})


def _descending_bins(raw):
    raw["schema"]["variables"][1]["quantizer"] = {
        "kind": "bins", "edges": [2.0, 1.0], "labels": ["u", "v", "w"]}


def _thresholds_not_increasing(raw):
    raw["distortion"]["budget"] = {"mode": "thresholded",
                                   "pairs": [[1.0, 0.1], [0.5, 0.2]]}


class TestConfigErrors:
    """Every malformed or incomplete config is a configuration error (exit
    3) whose one ``error:`` line names the field or the fault, without a
    traceback."""

    @pytest.mark.parametrize("break_config, field", [
        (_without_categories, "categories"),
        (_pairwise_without_d1, "d1"),
        (_tol_not_a_number, "solver.tol"),
        pytest.param(_descending_bins, "schema.variables[1].quantizer: bin edges",
                     id="_descending_bins-edges"),
        (_thresholds_not_increasing, "distortion.budget: thresholds"),
        (_solver_not_a_mapping, "not a mapping"),
        (_misspelled_section, "discrimnation"),
        (_misspelled_nested_key, "discrimination.epsilonn"),
        (_misspelled_attribute, "distortion.metric.attributes.f11"),
        (_scalar_between, "schema.filters[0].value"),
        (_string_in, "schema.filters[0].value"),
        (_expected_budget_without_c, "distortion.budget.c"),
        (_nan_penalty, "distortion penalty is negative or NaN"),
        (_nan_rule_value, "distortion penalty is negative or NaN"),
        (_nan_budget, "distortion.budget: budget is negative or NaN"),
        (_nan_pair_budget, "distortion.budget: budget is negative or NaN"),
        (_inf_budget, "distortion.budget: budget is infinite"),
        (_inf_pair_budget, "distortion.budget: budget is infinite"),
        (_nan_threshold, "distortion.budget: thresholds"),
        (_negative_threshold, "distortion.budget: thresholds must be nonnegative"),
        (_nan_tol, "solver tol"),
        (_negative_max_iters, "solver max_iters"),
        (_zero_max_outer, "solver max_outer"),
        (_nan_target, "target has negative or non-finite"),
        (_empty_delimiter, "input.delimiter"),
        (_two_char_delimiter, "input.delimiter"),
        (_quote_delimiter, "input.delimiter"),
        (_newline_delimiter, "input.delimiter"),
        (_cr_delimiter, "input.delimiter"),
        (_separator_in_a_group, "'grp' contains '|'"),
    ])
    def test_validate_exits_3_naming_the_field(self, tmp_path, capsys,
                                               break_config, field):
        raw = tiny_config_dict()
        break_config(raw)
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["validate", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and field in line
        assert "Traceback" not in captured.err and captured.out == ""


    @pytest.mark.parametrize("objective", ["l1", "kl"])
    @pytest.mark.parametrize("break_config, field", [
        (_nan_penalty, "penalty"), (_nan_budget, "distortion.budget"),
        (_nan_tol, "solver tol"), (_nan_target, "target"),
    ])
    def test_fit_refuses_nan_numbers(self, workdir, capsys, break_config, field,
                                     objective):
        # NaN passes a check written as "x < 0"; these configs once solved to
        # a kernel, stalled, or ended in a misnamed or HiGHS error
        tmp, cfg = workdir
        raw = yaml.safe_load(cfg.read_text())
        raw["objective"] = objective
        break_config(raw)
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg)]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and field in line
        assert not (tmp / "out" / "kernel.csv").exists()

    def test_fit_refuses_an_infinite_budget(self, workdir, capsys):
        # an infinite row bound once gave an l1 kernel reported optimal
        # with certificate nan (0 * inf in the Lagrangian bound)
        tmp, cfg = workdir
        raw = yaml.safe_load(cfg.read_text())
        raw["objective"] = "l1"
        _inf_budget(raw)
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg)]) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "distortion.budget" in line
        assert not (tmp / "out" / "kernel.csv").exists()


def counting_reads(monkeypatch) -> list:
    """The paths ``cli.read_dataset`` parses from now on, in call order."""
    parsed = []

    def counted(path, *args, **kwargs):
        parsed.append(str(path))
        return read_dataset(path, *args, **kwargs)
    monkeypatch.setattr(cli, "read_dataset", counted)
    return parsed


class TestTrainingRecords:
    """``fit`` binds its kernel to the training file's SHA-256 and saves the
    records it read as ``training.npz``; ``transform`` and ``audit`` refuse
    a changed file and otherwise reuse the saved records, with the outputs
    a fresh parse gives."""

    OUTPUTS = ("transformed_train.csv", "transformed_apply.csv",
               "audit_report.json", "audit_report.txt", "cohort_deltas.csv")

    @staticmethod
    def commands(cfg, kernel, out):
        return [
            ["transform", "--config", str(cfg), "--kernel", str(kernel),
             "--mode", "train", "--out-dir", str(out)],
            ["transform", "--config", str(cfg), "--kernel", str(kernel),
             "--mode", "apply", "--out-dir", str(out)],
            ["audit", "--config", str(cfg), "--kernel", str(kernel),
             "--transformed", str(out / "transformed_train.csv"),
             "--out-dir", str(out)],
        ]

    def run_all(self, cfg, kernel, out, monkeypatch):
        """Outputs of the three commands, and the files they parsed."""
        parsed = counting_reads(monkeypatch)
        for argv in self.commands(cfg, kernel, out):
            assert main(argv) == 0
        monkeypatch.undo()
        return {name: (out / name).read_bytes() for name in self.OUTPUTS}, parsed

    def test_changed_training_file_refused_unless_overridden(self, workdir, capsys):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        kernel = tmp / "out" / "kernel.csv"
        data = tmp / "data.csv"
        lines = data.read_text().splitlines()
        fields = lines[1].split(",")
        fields[-1] = "1" if fields[-1] == "0" else "0"  # one outcome flipped
        lines[1] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        for argv in self.commands(cfg, kernel, tmp / "ok"):
            capsys.readouterr()
            assert main(argv) == 3
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and "data_sha256" in line
            assert main(argv + ["--allow-provenance-mismatch"]) == 0
        # a kernel that records no data digest reads the file as it is
        first, rest = kernel.read_text().split("\n", 1)
        first = " ".join(p for p in first.split() if not p.startswith("data_sha256="))
        kernel.write_text(first + "\n" + rest)
        for argv in self.commands(cfg, kernel, tmp / "legacy"):
            assert main(argv) == 0

    def test_transformed_file_binds_audit_to_the_training_data(self, workdir, capsys):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(tmp / "out" / "kernel.csv"),
            "--mode", "train", "--out-dir", str(tmp / "t"),
        ]) == 0
        data, transformed = tmp / "data.csv", tmp / "t" / "transformed_train.csv"
        digest = file_sha256(str(data))
        first, rest = transformed.read_bytes().split(b"\n", 1)
        assert first.decode().endswith(f" data_sha256={digest}")
        # the outcomes of the first 40 training rows set to 1 afterwards
        lines = data.read_text().splitlines()
        lines[1:41] = [line[:line.rindex(",")] + ",1" for line in lines[1:41]]
        data.write_text("\n".join(lines) + "\n")
        argv = ["audit", "--config", str(cfg), "--transformed", str(transformed),
                "--out-dir", str(tmp / "a")]
        capsys.readouterr()
        assert main(argv) == 3
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and f"data_sha256 {digest}" in line
        assert main(argv + ["--allow-provenance-mismatch"]) == 0
        # an explicit original is audited as given
        assert main(argv + ["--original", str(data)]) == 0
        # a transformed file that records no data digest reads as before
        transformed.write_bytes(first.split(b" data_sha256=")[0] + b"\n" + rest)
        assert main(argv) == 0

    def test_train_file_of_another_input_names_that_input(self, workdir, capsys):
        # its rows pair with the records of the file they were read from,
        # not with the training records
        tmp, cfg = workdir
        other = str(write_synthetic_csv(tmp / "other.csv", n=400, seed=99))
        assert main(["fit", "--config", str(cfg)]) == 0
        kernel = str(tmp / "out" / "kernel.csv")
        assert main(["transform", "--config", str(cfg), "--kernel", kernel,
                     "--mode", "train", "--input", other, "--out-dir", str(tmp / "t")]) == 0
        transformed = str(tmp / "t" / "transformed_train.csv")
        digest = file_sha256(other)
        assert provenance_records(transformed, "data") == [
            {"fingerprint": load_config(str(cfg)).fingerprint(), "data_sha256": digest}]
        audit = ["audit", "--config", str(cfg), "--transformed", transformed,
                 "--out-dir", str(tmp / "a")]
        for argv in (audit, audit + ["--kernel", kernel]):
            capsys.readouterr()
            assert main(argv) == 3
            [line] = capsys.readouterr().err.splitlines()
            assert line.startswith("error: ") and f"data_sha256 {digest}" in line
            assert main(argv + ["--allow-provenance-mismatch"]) == 0
        assert main(audit + ["--original", other]) == 0
        payload = json.loads((tmp / "a" / "audit_report.json").read_text())
        assert payload["distortion"]["mean"] <= 0.8 + 0.1  # near the budget

    def test_saved_records_give_the_parsed_outputs(self, workdir, monkeypatch):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        kernel = tmp / "out" / "kernel.csv"
        saved, parsed = self.run_all(cfg, kernel, tmp / "a", monkeypatch)
        # only the audited transformed file is parsed
        assert parsed == [str(tmp / "a" / "transformed_train.csv")]
        (tmp / "out" / "training.npz").unlink()
        fresh, parsed = self.run_all(cfg, kernel, tmp / "b", monkeypatch)
        assert parsed.count(str(tmp / "data.csv")) == 3
        assert saved == fresh

    @pytest.mark.parametrize("command, outputs", [
        (["fit"], ("kernel.csv", "fit_report.json", "fit_report.txt")),
        (["sweep", "--eps-grid", "0.1,0.5"], ("sweep.csv", "sweep.json")),
    ], ids=["fit", "sweep"])
    def test_refit_at_another_epsilon_parses_nothing(self, workdir, monkeypatch,
                                                     command, outputs):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        raw = yaml.safe_load(cfg.read_text())
        raw["discrimination"]["epsilon"] = 0.4
        refit = tmp / "refit.yaml"
        refit.write_text(yaml.safe_dump(raw))
        runs = []
        for cached in (True, False):
            if not cached:
                (tmp / "out" / "training.npz").unlink()
            parsed = counting_reads(monkeypatch)
            assert main(command[:1] + ["--config", str(refit)] + command[1:]) == 0
            monkeypatch.undo()
            runs.append((parsed, {name: (tmp / "out" / name).read_bytes()
                                  for name in outputs}))
        (cached_parsed, cached), (fresh_parsed, fresh) = runs
        assert cached_parsed == [] and fresh_parsed == [str(tmp / "data.csv")]
        assert cached == fresh

    def other_data(self, tmp, cfg):
        """A sidecar fit on data other than the workdir's."""
        other = tmp / "other"
        other.mkdir()
        write_synthetic_csv(other / "data.csv", n=300, seed=11)
        raw = yaml.safe_load(cfg.read_text())
        raw["input"]["path"] = str(other / "data.csv")
        raw["output"]["dir"] = str(other / "out")
        (other / "config.yaml").write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(other / "config.yaml")]) == 0
        return (other / "out" / "training.npz").read_bytes()

    def fit_elsewhere(self, tmp, cfg, edit):
        """The sidecar of a fit of the workdir's data under the configuration
        ``edit`` changes, into another output directory."""
        raw = yaml.safe_load(cfg.read_text())
        edit(raw)
        raw["output"]["dir"] = str(tmp / "elsewhere")
        (tmp / "elsewhere.yaml").write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(tmp / "elsewhere.yaml")]) == 0
        return (tmp / "elsewhere" / "training.npz").read_bytes()

    def other_filter(self, tmp, cfg):
        """A sidecar of the workdir's data and digest, read under another
        filter (and so holding other records)."""
        return self.fit_elsewhere(tmp, cfg, lambda raw: raw["schema"].setdefault(
            "filters", []).append({"op": "==", "column": "f1", "value": "u"}))

    def other_delimiter(self, tmp, cfg):
        """A sidecar of the workdir's data and digest, saved under another
        delimiter (and holding other records)."""
        raw = yaml.safe_load(cfg.read_text())
        raw["input"]["delimiter"] = ";"
        config = config_from_dict(raw)
        dataset = read_dataset(str(tmp / "data.csv"), config.schema)
        sub = type(dataset)(config.schema, dataset.d[::2], dataset.x[::2],
                            dataset.y[::2])
        path = tmp / "foreign.npz"
        write_training(str(path), sub, cli._record_key(config, file_sha256(config.input_path)))
        return path.read_bytes()

    def test_sidecar_of_another_epsilon_is_a_hit(self, workdir, monkeypatch):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        kernel = tmp / "out" / "kernel.csv"
        sidecar = tmp / "out" / "training.npz"
        sidecar.unlink()
        fresh, _ = self.run_all(cfg, kernel, tmp / "a", monkeypatch)
        sidecar.write_bytes(self.fit_elsewhere(
            tmp, cfg, lambda raw: raw["discrimination"].update(epsilon=0.4)))
        outputs, parsed = self.run_all(cfg, kernel, tmp / "b", monkeypatch)
        assert parsed == [str(tmp / "b" / "transformed_train.csv")]
        assert outputs == fresh

    @pytest.mark.parametrize("foreign", ["other_data", "other_filter", "other_delimiter"])
    def test_foreign_sidecar_ignored(self, workdir, monkeypatch, foreign):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        kernel = tmp / "out" / "kernel.csv"
        sidecar = tmp / "out" / "training.npz"
        sidecar.unlink()
        fresh, _ = self.run_all(cfg, kernel, tmp / "a", monkeypatch)
        sidecar.write_bytes(getattr(self, foreign)(tmp, cfg))
        outputs, parsed = self.run_all(cfg, kernel, tmp / "b", monkeypatch)
        assert parsed.count(str(tmp / "data.csv")) == 3
        assert outputs == fresh

    def test_damaged_sidecar_is_a_miss(self, workdir, monkeypatch):
        # byte 10 of a zip central-directory header is its compression
        # method; 99 names one the zip reader does not support
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        kernel = tmp / "out" / "kernel.csv"
        sidecar = tmp / "out" / "training.npz"
        data = bytearray(sidecar.read_bytes())
        data[data.index(b"PK\x01\x02") + 10] = 99
        sidecar.write_bytes(bytes(data))
        outputs, parsed = self.run_all(cfg, kernel, tmp / "a", monkeypatch)
        assert parsed.count(str(tmp / "data.csv")) == 3
        sidecar.unlink()
        fresh, _ = self.run_all(cfg, kernel, tmp / "b", monkeypatch)
        assert outputs == fresh


class TestDocumentedExitCodes:
    """Inputs that once ended outside the documented exit codes: bytes
    that are not UTF-8 (exit 1 and a traceback), argparse usage errors
    (exit 2, which means infeasible here) and stream ids past int64
    (silently merged into one).  Each now ends in its code with one
    ``error:`` line."""

    @staticmethod
    def error_line(capsys):
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        [line] = [line for line in captured.err.splitlines() if "error:" in line]
        return line

    @staticmethod
    def spoil(path, at):
        """Put the byte 0xff at offset ``at`` of the file at ``path``."""
        body = path.read_bytes()
        path.write_bytes(body[:at] + b"\xff" + body[at:])

    def test_data_file_not_utf8(self, workdir, capsys):
        tmp, cfg = workdir
        data = tmp / "data.csv"
        at = data.read_bytes().index(b"\n") + 3
        self.spoil(data, at)
        assert main(["fit", "--config", str(cfg)]) == 4
        assert self.error_line(capsys) == (
            f"error: {data}: byte {at} (0xff) is not UTF-8 (invalid start byte)")

    def test_config_not_utf8(self, workdir, capsys):
        tmp, cfg = workdir
        cfg.write_bytes(b"# caf\xff\n" + cfg.read_bytes())
        assert main(["validate", "--config", str(cfg)]) == 3
        assert self.error_line(capsys) == (
            f"error: {cfg}: byte 5 (0xff) is not UTF-8 (invalid start byte)")

    def fitted_kernel(self, workdir, capsys):
        tmp, cfg = workdir
        assert main(["fit", "--config", str(cfg)]) == 0
        capsys.readouterr()
        return tmp, cfg, tmp / "out" / "kernel.csv"

    def test_kernel_not_utf8(self, workdir, capsys):
        tmp, cfg, kernel = self.fitted_kernel(workdir, capsys)
        body = kernel.read_bytes()
        at = body.index(b"\n", body.index(b"\n") + 1) + 2  # in line 3's d label
        self.spoil(kernel, at)
        assert main(["transform", "--config", str(cfg), "--kernel", str(kernel)]) == 4
        assert self.error_line(capsys) == (
            f"error: {kernel}: byte {at} (0xff) is not UTF-8 (invalid start byte)")

    def test_provenance_line_not_utf8(self, workdir, capsys):
        tmp, cfg, kernel = self.fitted_kernel(workdir, capsys)
        at = len("# fairmap-kernel ")
        self.spoil(kernel, at)
        assert main(["transform", "--config", str(cfg), "--kernel", str(kernel)]) == 4
        assert self.error_line(capsys) == (
            f"error: {kernel}: byte {at} (0xff) is not UTF-8 (invalid start byte)")
        with pytest.raises(SchemaMismatchError, match=f"byte {at} "):
            provenance_records(str(kernel), "kernel")

    @pytest.mark.parametrize("sid", [2**63, 2**64 - 1, -(2**63) - 1])
    def test_stream_id_outside_int64(self, tmp_path, capsys, sid):
        data = tmp_path / "ids.csv"
        data.write_text(f"grp,f1,out,_stream\na,u,1,0\nb,v,0,{sid}\n")
        raw = tiny_config_dict(path=str(data))
        raw["output"] = {"dir": str(tmp_path / "out")}
        cfg = tmp_path / "ids.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg)]) == 4
        assert self.error_line(capsys) == (
            f"error: {data} line 3: stream id {sid} is outside int64")

    @pytest.mark.parametrize("argv, message", [
        (["fit", "--config", "x.yaml", "--bogus"], "unrecognized arguments: --bogus"),
        (["fit"], "the following arguments are required: --config"),
    ], ids=["unknown_flag", "missing_config"])
    def test_usage_error(self, capsys, argv, message):
        assert main(argv) == 3
        line = self.error_line(capsys)
        assert line.startswith("error: fairmap") and line.endswith(message)

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0 and "error" not in capsys.readouterr().err


def mutate(body, edits):
    """``body`` after each (kind, at, chunk) edit in turn: insert ``chunk``,
    delete ``len(chunk)`` bytes, or flip the byte at ``at`` by XOR with
    ``chunk[0]`` (1 when that is 0); ``at`` wraps around the length."""
    for kind, at, chunk in edits:
        at %= len(body) + 1
        if kind == "insert":
            body = body[:at] + chunk + body[at:]
        elif kind == "delete":
            body = body[:at] + body[at + len(chunk):]
        elif at < len(body):
            body = body[:at] + bytes([body[at] ^ (chunk[0] or 1)]) + body[at + 1:]
    return body


# raw bytes, and tokens that a field, a number or a line could take
_CHUNKS = st.one_of(st.binary(min_size=1, max_size=3), st.sampled_from([
    b",", b"\n", b"\r", b'"', b"#", b":", b"-", b" ", b"\t", b"\x00", b"\xff", b"0",
    b"1e9", b"nan", b"inf", b"-1", b"_stream", b"a,u,1\n", b"[", b"{",
]))
_EDITS = st.lists(st.tuples(st.sampled_from(["insert", "delete", "flip"]),
                            st.integers(0, 1 << 16), _CHUNKS), min_size=1, max_size=4)


class TestMutatedInputs:
    """Bytes inserted into, deleted from or flipped in a valid data file,
    config or ``kernel.csv`` end every command in a documented exit code
    (0, 2, 3, 4 or 5), never in an exception, and an exit 3 or 4 prints
    exactly one line, the ``error:`` line."""

    @pytest.fixture(scope="class")
    def base(self, tmp_path_factory):
        """The valid files (data, config text with a ``{data}`` hole for
        the data path, kernel fit on them) as bytes, and a scratch root."""
        tmp = tmp_path_factory.mktemp("mutated")
        data = write_synthetic_csv(tmp / "data.csv", n=120)
        raw = tiny_config_dict(path="{data}")
        raw["output"] = {"dir": str(tmp / "out")}
        config = yaml.safe_dump(raw)
        (tmp / "config.yaml").write_text(config.replace("{data}", str(data)))
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["fit", "--config", str(tmp / "config.yaml")]) == 0
        return dict(data=data.read_bytes(), config=config.encode(),
                    kernel=(tmp / "out" / "kernel.csv").read_bytes(), root=tmp)

    @staticmethod
    def run(argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
        assert code in (0, 2, 3, 4, 5), (argv, code, err.getvalue())
        lines = [line for line in err.getvalue().splitlines()
                 if not line.startswith("warning: ")]
        if code in (3, 4):
            assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        else:
            assert lines == [], (argv, code, lines)

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(["data", "config", "kernel"]), edits=_EDITS)
    @example(target="config", edits=[("insert", 0, b"\x00")])  # PyYAML's two-line message
    def test_every_command_ends_in_a_documented_code(self, base, target, edits):
        with tempfile.TemporaryDirectory(dir=base["root"]) as name:
            tmp = Path(name)
            files = {k: tmp / f for k, f in (("data", "data.csv"), ("config", "config.yaml"),
                                             ("kernel", "kernel.csv"))}
            body = dict(base, config=base["config"].replace(b"{data}", bytes(files["data"])))
            body[target] = mutate(body[target], edits)
            for k, path in files.items():
                path.write_bytes(body[k])
            cfg, kernel, out = files["config"], files["kernel"], tmp / "out"
            self.run(["validate", "--config", cfg])
            self.run(["fit", "--config", cfg, "--out-dir", out])
            for mode in ("train", "apply"):
                self.run(["transform", "--config", cfg, "--kernel", kernel, "--mode", mode,
                          "--out-dir", out])
            transformed = out / "transformed_train.csv"
            self.run(["audit", "--config", cfg, "--kernel", kernel, "--out-dir", out]
                     + (["--transformed", transformed] if transformed.exists() else []))


def write_compas_config(tmp_path, bench_inputs):
    """A 3,000-row compas-shaped file under the compas preset (KL
    objective) at the bench's epsilon; returns the config path."""
    data = str(tmp_path / "compas.csv")
    bench_inputs.write_compas(data, bench_inputs.compas_input(3000, 5))
    raw = preset_dict("compas")
    raw["input"]["path"] = data
    raw["output"]["dir"] = str(tmp_path / "out")
    raw["discrimination"]["epsilon"] = 0.45  # the bench's; the preset's is infeasible here
    cfg = tmp_path / "compas.yaml"
    cfg.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return cfg


def test_no_filters_reads_a_prefiltered_file(tmp_path, bench_inputs, capsys):
    """``transform --no-filters`` skips the config's row filters: the raw
    file then holds a charge degree the filters would have dropped, and a
    transformed file, which lacks the filter columns, reads back whole."""
    cfg = write_compas_config(tmp_path, bench_inputs)
    kernel = ["--config", str(cfg), "--kernel", str(tmp_path / "out" / "kernel.csv")]
    assert main(["fit", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["transform", *kernel, "--no-filters", "--out-dir", str(tmp_path / "raw")]) == 4
    assert "value 'O' is not a category of 'c_charge_degree'" in capsys.readouterr().err
    assert main(["transform", *kernel, "--mode", "train"]) == 0
    prefiltered = str(tmp_path / "out" / "transformed_train.csv")
    capsys.readouterr()
    assert main(["transform", *kernel, "--input", prefiltered,
                 "--out-dir", str(tmp_path / "filtered")]) == 4
    assert "filter column 'days_b_screening_arrest' missing" in capsys.readouterr().err
    config = load_config(str(cfg))
    for mode in ("train", "apply"):
        out = tmp_path / f"no_filters_{mode}"
        assert main(["transform", *kernel, "--mode", mode, "--input", prefiltered,
                     "--no-filters", "--out-dir", str(out)]) == 0
        written = read_dataset(str(out / f"transformed_{mode}.csv"), config.schema)
        assert len(written) == 981


def test_commands_as_processes(tmp_path, bench_inputs):
    """The commands as users start them, one process each, so each loads
    SciPy's HiGHS bindings through ``fairmap.solver``'s own loader (this
    suite imports ``scipy.optimize`` first), on a 3,000-row compas-shaped
    file under the compas preset (KL objective)."""
    cfg = write_compas_config(tmp_path, bench_inputs)
    fit = ["fit", "--config", str(cfg)]
    kernel = [*fit[1:], "--kernel", str(tmp_path / "out" / "kernel.csv")]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src}
    for argv in (fit, ["transform", *kernel, "--mode", "train"],
                 ["transform", *kernel, "--mode", "apply"],
                 ["audit", *kernel, "--transformed",
                  str(tmp_path / "out" / "transformed_train.csv")]):
        done = subprocess.run([sys.executable, "-m", "fairmap.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, (argv, done.stderr)
