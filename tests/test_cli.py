"""End-to-end command-line pipeline tests on synthetic data."""

import csv
import hashlib
import json

import numpy as np
import pytest
import yaml

from fairmap.cli import main
from fairmap.config import load_config
from fairmap.dataio import read_dataset, read_kernel, write_kernel
from fairmap.optimizer import TransformKernel, identity_kernel

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
    PINNED_TRAIN = "6c1ce8139506d6a8a5862d1953b4df4dfdb742d862173b773e616888fb3bbe41"
    PINNED_APPLY = "58594001f54ec1e5991dcc8b431d38a36731b2f0d4655237114ff0c3474e90f5"

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
        header = out_file.read_text().splitlines()[0]
        assert "out" not in header.split(",")
        # train mode on the same unlabeled data must fail as a data error
        assert main([
            "transform", "--config", str(cfg), "--kernel", str(kernel),
            "--mode", "train", "--input", str(unlabeled),
            "--out-dir", str(tmp / "tb"),
        ]) == 4

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

    def test_validate_rejects_bad_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("schema: {variables: []}\n")
        assert main(["validate", "--config", str(bad)]) == 3
