"""Built-in experiment configurations.

Both presets assume user-fetched raw files (documented in the README;
the data is not bundled):

* "compas": ProPublica's two-year recidivism file.  Rows are filtered the
  way ProPublica's published analysis does (screening-to-arrest within 30
  days, a recorded recidivism flag, an ordinary charge degree, a valid
  score), races other than African-American/Caucasian are dropped, and
  priors counts are bucketed.  Pairwise discrimination control at
  epsilon = 0.1, a uniform expected-distortion budget c = 0.5, KL
  utility.  Category jumps in age and priors cost 1 (more than one jump
  is forbidden-level), charge-degree changes cost 2, recidivism may only
  be lowered (cost 2; raising it is forbidden-level), combined as a sum
  of squares.

* "adult": the UCI census-income file (headerless).  Race collapses to
  White/Minority, age is quantized to decades, education to years.
  Target-distance discrimination control at epsilon = 0.15 against the
  original income marginal, total-variation utility, and a rule-table
  distortion metric with exceedance budgets: small feature moves are
  allowed with small probability, large ones never.
"""

from __future__ import annotations

import copy

from .config import PipelineConfig, config_from_dict
from .errors import ConfigError

_COMPAS = {
    "input": {
        "path": "data/compas-scores-two-years.csv",
        "delimiter": ",",
        "has_header": True,
        "columns": None,
    },
    "schema": {
        "variables": [
            {
                "name": "sex",
                "role": "D",
                "categories": ["Female", "Male"],
            },
            {
                "name": "race",
                "role": "D",
                "categories": ["African-American", "Caucasian"],
                "quantizer": {
                    "kind": "map",
                    "mapping": {
                        "African-American": "African-American",
                        "Caucasian": "Caucasian",
                    },
                    "drop_unmapped": True,
                },
            },
            {
                "name": "age_cat",
                "role": "X",
                "categories": ["Less than 25", "25 - 45", "Greater than 45"],
            },
            {
                "name": "c_charge_degree",
                "role": "X",
                "categories": ["F", "M"],
            },
            {
                "name": "priors_count",
                "role": "X",
                "categories": ["0", "1 to 3", "More than 3"],
                "quantizer": {
                    "kind": "bins",
                    "edges": [1, 4],
                    "labels": ["0", "1 to 3", "More than 3"],
                },
            },
            {
                "name": "two_year_recid",
                "role": "Y",
                "categories": ["0", "1"],
            },
        ],
        "filters": [
            {"column": "days_b_screening_arrest", "op": "between", "value": [-30, 30]},
            {"column": "is_recid", "op": "!=", "value": -1},
            {"column": "c_charge_degree", "op": "!=", "value": "O"},
            {"column": "score_text", "op": "!=", "value": "N/A"},
        ],
    },
    "discrimination": {
        "mode": "pairwise",
        "epsilon": 0.1,
        "target": None,
        "condition_on": [],
        "min_cell_count": 20,
    },
    "distortion": {
        "metric": {
            "kind": "per_attribute",
            "combiner": "sum_of_squares",
            "attributes": {
                "age_cat": {
                    "kind": "ordinal_jump",
                    "penalties": {1: 1.0},
                    "above": 1e4,
                },
                "priors_count": {
                    "kind": "ordinal_jump",
                    "penalties": {1: 1.0},
                    "above": 1e4,
                },
                "c_charge_degree": {
                    "kind": "ordinal_jump",
                    "penalties": {1: 2.0},
                    "above": 1e4,
                },
                "two_year_recid": {
                    "kind": "table",
                    "values": {"0": {"1": 1e4}, "1": {"0": 2.0}},
                },
            },
        },
        "budget": {"mode": "expected", "c": 0.5},
    },
    "objective": "kl",
    "solver": {"tol": 1e-6, "max_iters": 50000, "strategy": "full"},
    "seed": 0,
    "output": {"dir": "out/compas"},
}

_ADULT_COLUMNS = [
    "age", "workclass", "fnlwgt", "education", "education_num",
    "marital_status", "occupation", "relationship", "race", "sex",
    "capital_gain", "capital_loss", "hours_per_week", "native_country",
    "income",
]

_ADULT = {
    "input": {
        "path": "data/adult.data",
        "delimiter": ",",
        "has_header": False,
        "columns": _ADULT_COLUMNS,
    },
    "schema": {
        "variables": [
            {
                "name": "race",
                "role": "D",
                "categories": ["White", "Minority"],
                "quantizer": {
                    "kind": "map",
                    "mapping": {"White": "White"},
                    "default": "Minority",
                },
            },
            {
                "name": "sex",
                "role": "D",
                "categories": ["Male", "Female"],
            },
            {
                "name": "age",
                "role": "X",
                "categories": [
                    "17-19", "20-29", "30-39", "40-49", "50-59",
                    "60-69", "70-79", "80-89", "90+",
                ],
                "quantizer": {
                    "kind": "bins",
                    "edges": [20, 30, 40, 50, 60, 70, 80, 90],
                    "labels": [
                        "17-19", "20-29", "30-39", "40-49", "50-59",
                        "60-69", "70-79", "80-89", "90+",
                    ],
                },
            },
            {
                "name": "education_num",
                "role": "X",
                "categories": [str(i) for i in range(1, 17)],
            },
            {
                "name": "income",
                "role": "Y",
                "categories": ["<=50K", ">50K"],
            },
        ],
        "filters": [],
    },
    "discrimination": {
        "mode": "target",
        "epsilon": 0.15,
        "target": None,
        "condition_on": [],
        "min_cell_count": 20,
    },
    "distortion": {
        "metric": {
            "kind": "rule_table",
            "rules": [
                # large moves: age by more than a decade, education lowered
                # or raised by more than a year
                {
                    "value": 3.0,
                    "if_any": [
                        {"var": "age", "abs_jump_min": 2},
                        {"var": "education_num", "jump_max": -1},
                        {"var": "education_num", "jump_min": 2},
                    ],
                },
                # age moved by exactly a decade (education within +1 here,
                # larger moves were caught above), any income change
                {"value": 2.0, "if_all": [{"var": "age", "abs_jump": 1}]},
                # income decreased with age unchanged, education within +1
                {
                    "value": 1.0,
                    "if_all": [
                        {"var": "income", "jump_max": -1},
                        {"var": "age", "abs_jump": 0},
                    ],
                },
            ],
        },
        "budget": {
            "mode": "thresholded",
            "pairs": [[0.9, 0.1], [1.9, 0.05], [2.9, 0.0]],
        },
    },
    "objective": "l1",
    "solver": {"tol": 1e-6, "max_iters": 50000, "strategy": "full"},
    "seed": 0,
    "output": {"dir": "out/adult"},
}

PRESETS = {"compas": _COMPAS, "adult": _ADULT}


def preset_names() -> list[str]:
    return sorted(PRESETS)


def preset_dict(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; have {preset_names()}")
    return copy.deepcopy(PRESETS[name])


def preset_config(name: str, **overrides) -> PipelineConfig:
    """Compiled preset; keyword overrides patch the raw document first
    (``epsilon=``, ``c=``, ``input_path=``, ``seed=``)."""
    raw = preset_dict(name)
    if "epsilon" in overrides:
        raw["discrimination"]["epsilon"] = overrides.pop("epsilon")
    if "c" in overrides:
        raw["distortion"]["budget"]["c"] = overrides.pop("c")
    if "input_path" in overrides:
        raw["input"]["path"] = overrides.pop("input_path")
    if "seed" in overrides:
        raw["seed"] = overrides.pop("seed")
    if overrides:
        raise ConfigError(f"unknown preset overrides: {sorted(overrides)}")
    return config_from_dict(raw)
