"""End-to-end preset pipelines on synthetic raw files shaped like the
real ones (same columns, raw values, junk rows that ingestion must drop).
Numeric targets tied to the real datasets live in the acceptance tier;
here the presets run at settings their synthetic stand-ins can satisfy.
"""

import csv
import json

import numpy as np
import pytest
import yaml

from fairmap import (
    assemble,
    audit_discrimination,
    estimate_empirical,
    solve,
    transform_train,
)
from fairmap.cli import main
from fairmap.dataio import read_dataset
from fairmap.presets import preset_config, preset_dict


def write_compas_like(path, n=1500, seed=3):
    """ProPublica-shaped file: extra columns, rows the filters remove."""
    rng = np.random.default_rng(seed)
    fields = [
        "id", "sex", "age_cat", "race", "priors_count", "c_charge_degree",
        "days_b_screening_arrest", "is_recid", "score_text", "two_year_recid",
    ]
    rates = {
        ("Male", "African-American"): 0.593,
        ("Male", "Caucasian"): 0.430,
        ("Female", "African-American"): 0.393,
        ("Female", "Caucasian"): 0.367,
    }
    kept = 0
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for i in range(n):
            sex = rng.choice(["Male", "Male", "Male", "Female"])
            race = rng.choice(
                ["African-American", "African-American", "Caucasian", "Other"]
            )
            row = {
                "id": i,
                "sex": sex,
                "age_cat": rng.choice(
                    ["Less than 25", "25 - 45", "Greater than 45"]
                ),
                "race": race,
                "priors_count": int(rng.integers(0, 12)),
                "c_charge_degree": rng.choice(["F", "F", "M", "O"], p=[0.45, 0.2, 0.3, 0.05]),
                "days_b_screening_arrest": int(rng.integers(-60, 60)),
                "is_recid": int(rng.choice([0, 1, -1], p=[0.5, 0.45, 0.05])),
                "score_text": rng.choice(["Low", "Medium", "High", "N/A"],
                                          p=[0.4, 0.3, 0.25, 0.05]),
            }
            rate = rates.get((sex, race), 0.45)
            row["two_year_recid"] = int(rng.random() < rate)
            if (
                -30 <= row["days_b_screening_arrest"] <= 30
                and row["is_recid"] != -1
                and row["c_charge_degree"] != "O"
                and row["score_text"] != "N/A"
                and race != "Other"
            ):
                kept += 1
            writer.writerow(row)
    return kept


def write_adult_like(path, n=3000, seed=4):
    """Headerless census-shaped file with raw ages and padded fields."""
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for _ in range(n):
            age = int(rng.integers(17, 91))
            edu = int(rng.integers(1, 17))
            race = rng.choice(["White", "White", "Black", "Asian-Pac-Islander"])
            sex = rng.choice(["Male", "Female"])
            score = 0.1 + 0.02 * max(edu - 8, 0) + 0.1 * (30 <= age < 60)
            score += 0.08 * (sex == "Male") + 0.04 * (race == "White")
            income = ">50K" if rng.random() < score else "<=50K"
            fh.write(
                f"{age}, Private, {rng.integers(10000, 99999)}, Bachelors, {edu},"
                f" Never-married, ?, Husband, {race}, {sex}, 0, 0, 40,"
                f" United-States, {income}\n"
            )


class TestCompasPipeline:
    def test_ingestion_applies_published_filters(self, tmp_path):
        data = tmp_path / "compas.csv"
        kept = write_compas_like(data)
        cfg = preset_config("compas", input_path=str(data))
        ds = read_dataset(
            str(data), cfg.schema, filters=cfg.filters,
            has_header=cfg.has_header, columns=cfg.columns,
        )
        assert len(ds) == kept
        pmf = estimate_empirical(ds)
        assert pmf.n == kept
        # priors ints bucketed into the three ordinal categories
        assert pmf.schema.x_vars[2].alphabet.categories == (
            "0", "1 to 3", "More than 3"
        )

    def test_fit_transform_audit_roundtrip(self, tmp_path):
        data = tmp_path / "compas.csv"
        write_compas_like(data)
        raw = preset_dict("compas")
        raw["input"]["path"] = str(data)
        raw["discrimination"]["epsilon"] = 0.45  # satisfiable by this stand-in
        raw["output"] = {"dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "compas.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        assert report["status"] == "optimal"
        assert report["residual"] <= 1e-6
        kernel = tmp_path / "out" / "kernel.csv"
        assert main([
            "transform", "--config", str(cfg_path), "--kernel", str(kernel),
            "--mode", "train", "--out-dir", str(tmp_path / "out"),
        ]) == 0
        cfg = preset_config("compas", input_path=str(data), epsilon=0.45)
        src = read_dataset(str(data), cfg.schema, filters=cfg.filters)
        out = read_dataset(str(tmp_path / "out" / "transformed_train.csv"), cfg.schema)
        # recidivism may never be raised: forbidden-level transition
        raised = (src.y == 0) & (out.y == 1)
        assert not raised.any()
        assert main([
            "audit", "--config", str(cfg_path), "--kernel", str(kernel),
            "--transformed", str(tmp_path / "out" / "transformed_train.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]) == 0
        audit = json.loads((tmp_path / "out" / "audit_report.json").read_text())
        assert audit["discrimination_after"]["max_j"] <= 0.45 + 1e-6
        assert audit["distortion"]["mean"] <= 0.5 + 0.05

    def test_stated_budget_cannot_reach_tight_parity(self, tmp_path):
        # with recidivism lowering costing 2^2 under the squared combiner,
        # a 0.5 budget flips at most 12.5% of a row's mass; groups as far
        # apart as 0.593 vs 0.367 cannot come within 10% of each other, so
        # the headline setting is provably infeasible on data with these
        # group rates (the documented sweep explores where feasibility
        # begins instead)
        data = tmp_path / "compas.csv"
        write_compas_like(data)
        cfg = preset_config("compas", input_path=str(data))
        ds = read_dataset(
            str(data), cfg.schema, filters=cfg.filters,
            has_header=cfg.has_header, columns=cfg.columns,
        )
        pmf = estimate_empirical(ds)
        problem = assemble(pmf, cfg.discrimination, cfg.metric, cfg.budget, "kl")
        sol = solve(problem)
        assert sol.status == "infeasible"
        assert "disc[pairwise]" in sol.diagnostics["worst_constraint"]


class TestAdultPipeline:
    def test_ingestion_quantizes_raw_fields(self, tmp_path):
        data = tmp_path / "adult.data"
        write_adult_like(data)
        cfg = preset_config("adult", input_path=str(data))
        ds = read_dataset(
            str(data), cfg.schema, has_header=False, columns=cfg.columns,
        )
        assert len(ds) == 3000
        pmf = estimate_empirical(ds)
        # race collapsed to White/Minority
        assert pmf.schema.d_vars[0].alphabet.categories == ("White", "Minority")
        # every age decade seen in the data appears
        assert pmf.p_x().sum() == pytest.approx(1.0, abs=1e-12)

    def test_cli_roundtrip_with_headerless_input(self, tmp_path):
        # the raw file is headerless with an explicit column list; the
        # artifacts we write are self-describing and must audit cleanly
        data = tmp_path / "adult.data"
        write_adult_like(data, n=2000)
        raw = preset_dict("adult")
        raw["input"]["path"] = str(data)
        raw["output"] = {"dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "adult.yaml"
        cfg_path.write_text(yaml.safe_dump(raw))
        assert main(["fit", "--config", str(cfg_path)]) == 0
        kernel = tmp_path / "out" / "kernel.csv"
        assert main([
            "transform", "--config", str(cfg_path), "--kernel", str(kernel),
            "--mode", "train", "--out-dir", str(tmp_path / "out"),
        ]) == 0
        assert main([
            "audit", "--config", str(cfg_path), "--kernel", str(kernel),
            "--transformed", str(tmp_path / "out" / "transformed_train.csv"),
            "--out-dir", str(tmp_path / "out"),
        ]) == 0
        payload = json.loads(
            (tmp_path / "out" / "audit_report.json").read_text()
        )
        assert "discrimination_empirical" in payload
        assert payload["distortion"]["exceedance"]["2.9"] == 0.0

    def test_fit_and_exceedance_guarantees(self, tmp_path):
        data = tmp_path / "adult.data"
        write_adult_like(data)
        cfg = preset_config("adult", input_path=str(data))
        ds = read_dataset(
            str(data), cfg.schema, has_header=False, columns=cfg.columns,
        )
        pmf = estimate_empirical(ds)
        problem = assemble(pmf, cfg.discrimination, cfg.metric, cfg.budget, "l1")
        sol = solve(problem, tol=cfg.solver.tol)
        assert sol.status == "optimal"
        assert sol.residual <= 1e-6
        rep = audit_discrimination(pmf, cfg.discrimination, kernel=sol.kernel)
        assert rep.max_j <= 0.15 + 1e-6
        # transform and check the hard exceedance guarantee delta <= 2.9
        out = transform_train(ds, sol.kernel, seed=0)
        from fairmap import audit_distortion

        summary = audit_distortion(
            ds, out, cfg.metric, thresholds=[t for t, _ in cfg.budget.pairs]
        )
        assert summary.exceedance[2.9] == 0.0
        assert summary.max <= 2.9
