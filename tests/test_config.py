"""Configuration loading, round-tripping, fingerprints, presets."""

import numpy as np
import pytest
import yaml

from fairmap import distortion_matrix, evaluate_distortion
from fairmap.config import Filter, config_from_dict, load_config
from fairmap.constants import FORBIDDEN
from fairmap.errors import ConfigError
from fairmap.presets import preset_config, preset_dict, preset_names


def tiny_config_dict(path="data.csv", seed=0, eps=0.3):
    return {
        "input": {"path": path},
        "schema": {
            "variables": [
                {"name": "grp", "role": "D", "categories": ["a", "b"]},
                {"name": "f1", "role": "X", "categories": ["u", "v"]},
                {"name": "out", "role": "Y", "categories": ["0", "1"]},
            ],
        },
        "discrimination": {"mode": "pairwise", "epsilon": eps},
        "distortion": {
            "metric": {
                "kind": "per_attribute",
                "combiner": "sum_of_squares",
                "attributes": {
                    "f1": {"kind": "ordinal_jump", "penalties": {1: 1.0}},
                    "out": {
                        "kind": "table",
                        "values": {"0": {"1": 2.0}, "1": {"0": 1.0}},
                    },
                },
            },
            "budget": {"mode": "expected", "c": 0.8},
        },
        "objective": "l1",
        "seed": seed,
    }


class TestRoundTrip:
    def test_load_serialize_load_is_identity(self, tmp_path):
        cfg = config_from_dict(tiny_config_dict())
        path = tmp_path / "config.yaml"
        path.write_text(cfg.to_yaml(), encoding="utf-8")
        cfg2 = load_config(str(path))
        assert cfg.to_dict() == cfg2.to_dict()
        assert cfg.fingerprint() == cfg2.fingerprint()

    def test_fingerprint_seed_and_path_independent(self):
        a = config_from_dict(tiny_config_dict(seed=0, path="x.csv"))
        b = config_from_dict(tiny_config_dict(seed=99, path="y.csv"))
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_sensitive_to_epsilon(self):
        a = config_from_dict(tiny_config_dict(eps=0.3))
        b = config_from_dict(tiny_config_dict(eps=0.31))
        assert a.fingerprint() != b.fingerprint()

    def test_written_defaults_fingerprint_alike(self):
        """Nested defaults written out or left off, and a whole-number
        budget written as 1 or 1.0, give one fingerprint."""
        terse, full = tiny_config_dict(), tiny_config_dict()
        del terse["distortion"]["metric"]["attributes"]["out"]["kind"]
        full["distortion"]["metric"]["attributes"]["f1"]["above"] = FORBIDDEN
        terse["distortion"]["budget"]["c"] = 1
        full["distortion"]["budget"]["c"] = 1.0
        assert config_from_dict(terse).fingerprint() == config_from_dict(full).fingerprint()
        condition = {"var": "f1", "abs_jump_min": 1}
        terse["distortion"]["metric"] = {
            "kind": "rule_table", "rules": [{"value": 2.0, "if_any": [condition]}]}
        full["distortion"]["metric"] = {
            "kind": "rule_table",
            "rules": [{"value": 2.0, "if_all": [], "if_any": [condition]}]}
        assert config_from_dict(terse).fingerprint() == config_from_dict(full).fingerprint()

    def test_epsilon_map_entries(self):
        raw = tiny_config_dict()
        raw["discrimination"] = {
            "mode": "target",
            "epsilon": [
                {"y": "0", "d": "a", "value": 0.1},
                {"y": "1", "d": "a", "value": 0.2},
                {"y": "0", "d": "b", "value": 0.1},
                {"y": "1", "d": "b", "value": 0.2},
            ],
        }
        cfg = config_from_dict(raw)
        assert cfg.discrimination.eps((1, 0)) == 0.2

    def test_attribute_left_out_costs_nothing(self):
        raw = tiny_config_dict()
        del raw["distortion"]["metric"]["attributes"]["f1"]
        [table] = config_from_dict(raw).metric.x_tables
        np.testing.assert_array_equal(table, np.zeros((2, 2)))

    @pytest.mark.parametrize("strategy", ["full", "sof_fix_conditional", "sof_alternating"])
    def test_max_outer_is_filled_under_sof_alternating_alone(self, strategy):
        raw = tiny_config_dict()
        raw["solver"] = {"strategy": strategy}
        cfg = config_from_dict(raw)
        alternating = strategy == "sof_alternating"
        assert set(cfg.to_dict()["solver"]) == {
            "strategy", "tol", "max_iters", *(["max_outer"] if alternating else [])}
        assert cfg.solver.max_outer == (100 if alternating else None)


class TestValidation:
    def test_missing_outcome_variable(self):
        raw = tiny_config_dict()
        raw["schema"]["variables"] = raw["schema"]["variables"][:2]
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_unknown_objective(self):
        raw = tiny_config_dict()
        raw["objective"] = "elbo"
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_nonzero_identity_metric_rejected(self):
        raw = tiny_config_dict()
        raw["distortion"]["metric"]["attributes"]["out"] = {
            "kind": "table",
            "values": {"0": {"0": 1.0}},
        }
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    def test_negative_epsilon_rejected(self):
        raw = tiny_config_dict(eps=-0.1)
        with pytest.raises(ConfigError):
            config_from_dict(raw)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(ConfigError, match="finite"):
            config_from_dict(tiny_config_dict(eps=eps))

    def test_conditioning_variable_must_be_a_feature(self):
        raw = tiny_config_dict()
        raw["discrimination"] = {
            "mode": "conditional", "epsilon": 0.2, "condition_on": ["grp"],
        }
        with pytest.raises(ConfigError):
            config_from_dict(raw)


class TestFilter:
    """Every filter operator, on numeric and on string operands: a field
    and a value that both read as numbers compare as numbers, anything
    else compares as stripped strings."""

    @pytest.mark.parametrize("op, value, raw, accepted", [
        ("==", 3, "3.0", True),
        ("==", 3, "4", False),
        ("==", "x", " x ", True),
        ("==", "x", "y", False),
        ("!=", 3, "3", False),
        ("!=", 3, "4", True),
        ("!=", "x", "y", True),
        ("!=", "x", "x", False),
        ("<", 3, "2.5", True),
        ("<", 3, "3", False),
        ("<", 3, "10", False),  # a number, though "10" < "3" as strings
        ("<", "b", "a", True),
        ("<", "b", "c", False),
        ("<", 3, "abc", False),  # "abc" is no number: "abc" < "3" is false
        ("<=", 3, "3", True),
        ("<=", 3, "3.5", False),
        ("<=", "b", "b", True),
        ("<=", "b", "c", False),
        (">", 3, "10", True),
        (">", 3, "3", False),
        (">", "b", "c", True),
        (">", "b", "a", False),
        (">", 3, "abc", True),
        (">=", 3, "3", True),
        (">=", 3, "2", False),
        (">=", "b", "b", True),
        (">=", "b", "a", False),
        ("in", ["a", 1], "1", True),
        ("in", ["a", 1], " a", True),
        ("in", ["a", 1], "b", False),
        ("not_in", ["a", 1], "1", False),
        ("not_in", ["a", 1], "b", True),
        ("between", [1, 5], "3", True),
        ("between", [1, 5], "5", True),
        ("between", [1, 5], "0.5", False),
        ("between", [1, 5], "abc", False),
    ])
    def test_accepts(self, op, value, raw, accepted):
        assert Filter("col", op, value).accepts(raw) is accepted

    def test_unknown_operator_is_a_config_error(self):
        with pytest.raises(ConfigError):
            Filter("col", "=~", "x")


class TestPresets:
    def test_names(self):
        assert preset_names() == ["adult", "compas"]

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_dict("nope")

    def test_compas_compiles_with_paper_rules(self):
        cfg = preset_config("compas")
        schema, metric = cfg.schema, cfg.metric
        assert cfg.objective == "kl"
        assert cfg.discrimination.mode == "pairwise"
        assert cfg.discrimination.epsilon == 0.1
        assert cfg.budget.mode == "expected" and cfg.budget.c == 0.5
        # spot values: age +1 with recidivism drop = 1 + 4; charge = 4
        frm = (int(np.ravel_multi_index((0, 0, 0), schema.x_sizes)), 1)
        to = (int(np.ravel_multi_index((1, 0, 0), schema.x_sizes)), 0)
        assert evaluate_distortion(metric, schema, frm, to) == 5.0
        frm = (int(np.ravel_multi_index((0, 0, 0), schema.x_sizes)), 0)
        to = (int(np.ravel_multi_index((0, 0, 0), schema.x_sizes)), 1)
        assert evaluate_distortion(metric, schema, frm, to) >= FORBIDDEN

    def test_adult_compiles_with_paper_rules(self):
        cfg = preset_config("adult")
        assert cfg.objective == "l1"
        assert cfg.discrimination.mode == "target"
        assert cfg.discrimination.epsilon == 0.15
        assert [t for t, _ in cfg.budget.pairs] == [0.9, 1.9, 2.9]
        assert [b for _, b in cfg.budget.pairs] == [0.1, 0.05, 0.0]
        delta = distortion_matrix(cfg.metric, cfg.schema)
        assert set(np.unique(delta)) <= {0.0, 1.0, 2.0, 3.0}

    def test_preset_overrides(self):
        cfg = preset_config("compas", epsilon=0.25, c=0.25, seed=7)
        assert cfg.discrimination.epsilon == 0.25
        assert cfg.budget.c == 0.25
        assert cfg.seed == 7
        with pytest.raises(ConfigError):
            preset_config("compas", bogus=1)

    def test_presets_roundtrip_through_yaml(self):
        for name in preset_names():
            text = yaml.safe_dump(preset_dict(name))
            cfg = config_from_dict(yaml.safe_load(text))
            assert cfg.fingerprint() == preset_config(name).fingerprint()
