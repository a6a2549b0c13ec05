"""Pipeline configuration: a single YAML document describing ingestion,
schema, fairness specs, objective, solver settings, and outputs.

Configurations round-trip losslessly (load -> serialize -> load is the
identity on the canonical form) and carry a seed-independent fingerprint
over everything that determines the learned kernel; artifacts embed the
fingerprint so audits can refuse mismatched inputs.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from .constants import DEFAULT_MAX_ITERS, DEFAULT_TOL, FORBIDDEN
from .constraints import DiscriminationSpec
from .distortion import (
    DistortionBudget,
    DistortionMetric,
    RuleCondition,
    TableRule,
    label_table,
    ordinal_jump_table,
    validate_metric,
)
from .domain import Alphabet, Quantizer, Schema, Variable
from .errors import ConfigError

_COMPARISONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}
FILTER_OPS = (*_COMPARISONS, "in", "not_in", "between")


@dataclass(frozen=True)
class Filter:
    """Row predicate applied at ingestion, before quantization."""

    column: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in FILTER_OPS:
            raise ConfigError(f"unknown filter op {self.op!r}")

    def accepts(self, raw: str) -> bool:
        raw = raw.strip()
        if self.op in ("in", "not_in"):
            members = [str(v) for v in self.value]
            return (raw in members) == (self.op == "in")
        if self.op == "between":
            lo, hi = self.value
            try:
                x = float(raw)
            except ValueError:
                return False
            return float(lo) <= x <= float(hi)
        try:
            lhs, rhs = float(raw), float(self.value)
        except (TypeError, ValueError):
            lhs, rhs = raw, str(self.value)
        return _COMPARISONS[self.op](lhs, rhs)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS
    strategy: str = "full"  # full | sof_fix_conditional | sof_alternating
    max_outer: int = 100

    def __post_init__(self):
        if self.tol <= 0:
            raise ConfigError("solver tol must be positive")
        if self.strategy not in ("full", "sof_fix_conditional", "sof_alternating"):
            raise ConfigError(f"unknown solver strategy {self.strategy!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one fit/transform/audit run needs."""

    input_path: str
    delimiter: str
    has_header: bool
    columns: Optional[tuple[str, ...]]
    schema: Schema
    filters: tuple[Filter, ...]
    discrimination: DiscriminationSpec
    metric: Optional[DistortionMetric]
    budget: Optional[DistortionBudget]
    objective: str
    solver: SolverConfig
    seed: int
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    def fingerprint(self) -> str:
        """Hash of the kernel-determining parts; seed and paths excluded."""
        parts = {
            k: self.raw.get(k)
            for k in ("schema", "discrimination", "distortion", "objective", "solver")
        }
        blob = json.dumps(parts, sort_keys=True, default=str).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)


# the numeric fields, as (section or None, key, type): ``_canonical``
# fills their defaults and ``config_from_dict`` converts them, so that a
# malformed value is reported under its own name
_NUMBERS = (
    ("discrimination", "min_cell_count", int),
    ("solver", "tol", float),
    ("solver", "max_iters", int),
    ("solver", "max_outer", int),
    (None, "seed", int),
)


def _canonical(raw: dict) -> dict:
    """Fill defaults so equal configurations serialize identically (the
    ``_NUMBERS`` fields still to be converted)."""
    inp, disc, solver = (raw.get(k, {}) for k in ("input", "discrimination", "solver"))
    out = {
        "input": {
            "path": inp.get("path", ""),
            "delimiter": inp.get("delimiter", ","),
            "has_header": bool(inp.get("has_header", True)),
            "columns": inp.get("columns"),
        },
        "schema": {
            "variables": [
                {
                    "name": v["name"],
                    "role": v["role"],
                    "categories": [str(c) for c in v["categories"]],
                    "ordinal": bool(v.get("ordinal", False)),
                    "quantizer": v.get("quantizer"),
                }
                for v in raw.get("schema", {}).get("variables", [])
            ],
            "filters": [
                {"column": f["column"], "op": f["op"], "value": f["value"]}
                for f in raw.get("schema", {}).get("filters", [])
            ],
        },
        "discrimination": {
            "mode": disc.get("mode", "target"),
            "epsilon": disc.get("epsilon", 0.1),
            "target": disc.get("target"),
            "condition_on": list(disc.get("condition_on", [])),
            "min_cell_count": disc.get("min_cell_count", 20),
        },
        "distortion": raw.get("distortion"),
        "objective": raw.get("objective", "kl"),
        "solver": {
            "tol": solver.get("tol", DEFAULT_TOL),
            "max_iters": solver.get("max_iters", DEFAULT_MAX_ITERS),
            "strategy": solver.get("strategy", "full"),
            "max_outer": solver.get("max_outer", 100),
        },
        "seed": raw.get("seed", 0),
        "output": {"dir": raw.get("output", {}).get("dir", "out")},
    }
    dist = out["distortion"]
    if dist is not None:
        metric = dist.get("metric", {})
        canon_metric = {"kind": metric.get("kind", "per_attribute")}
        if canon_metric["kind"] == "per_attribute":
            canon_metric["combiner"] = metric.get("combiner", "sum_of_squares")
            canon_metric["attributes"] = metric.get("attributes", {})
        else:
            canon_metric["rules"] = metric.get("rules", [])
        budget = dist.get("budget", {})
        canon_budget = {"mode": budget.get("mode", "expected")}
        if canon_budget["mode"] == "expected":
            canon_budget["c"] = budget.get("c", 0.0)
        else:
            canon_budget["pairs"] = [
                [float(t), float(b)] for t, b in budget.get("pairs", [])
            ]
        out["distortion"] = {"metric": canon_metric, "budget": canon_budget}
    return out


def _build_quantizer(spec: Optional[dict]) -> Optional[Quantizer]:
    if spec is None:
        return None
    kind = spec.get("kind", "identity")
    if kind == "identity":
        return Quantizer("identity")
    if kind == "map":
        return Quantizer(
            "map",
            mapping={str(k): str(v) for k, v in spec.get("mapping", {}).items()},
            default=spec.get("default"),
            drop_unmapped=bool(spec.get("drop_unmapped", False)),
        )
    if kind == "bins":
        return Quantizer(
            "bins",
            edges=tuple(float(e) for e in spec["edges"]),
            labels=tuple(str(l) for l in spec["labels"]),
        )
    raise ConfigError(f"unknown quantizer kind {kind!r}")


def _build_schema(raw: dict) -> Schema:
    return Schema(tuple(
        Variable(Alphabet(v["name"], tuple(v["categories"]), ordinal=v["ordinal"]),
                 v["role"], _build_quantizer(v["quantizer"]))
        for v in raw["schema"]["variables"]
    ))


def _epsilon_from_config(raw_eps, schema: Schema, mode: str):
    if isinstance(raw_eps, (int, float)):
        return float(raw_eps)
    if not isinstance(raw_eps, list):
        raise ConfigError("epsilon must be a number or a list of entries")
    eps = {}
    for entry in raw_eps:
        y = schema.y_from_label(str(entry["y"]))
        value = float(entry["value"])
        if mode == "pairwise":
            key = (y, schema.d_from_label(entry["d1"]), schema.d_from_label(entry["d2"]))
        elif mode == "conditional":
            key = (y, schema.d_from_label(entry["d"]), int(entry["b"]))
        else:
            key = (y, schema.d_from_label(entry["d"]))
        eps[key] = value
    return eps


def _build_discrimination(raw: dict, schema: Schema) -> DiscriminationSpec:
    d = raw["discrimination"]
    target = d["target"]
    if target is not None:
        target = np.asarray([float(t) for t in target])
    x_names = {v.name for v in schema.x_vars}
    for name in d["condition_on"]:
        if name not in x_names:
            raise ConfigError(
                f"condition_on variable {name!r} is not a feature variable"
            )
    return DiscriminationSpec(
        mode=d["mode"],
        target=target,
        epsilon=_epsilon_from_config(d["epsilon"], schema, d["mode"]),
        condition_on=tuple(d["condition_on"]),
        min_cell_count=d["min_cell_count"],
    )


def _build_metric(raw: Optional[dict], schema: Schema):
    if raw is None:
        return None, None
    mspec = raw["metric"]
    if mspec["kind"] == "per_attribute":
        attrs = mspec["attributes"]
        metric = DistortionMetric(
            "per_attribute",
            combiner=mspec["combiner"],
            x_tables=tuple(_attribute_table(attrs.get(v.name), v.alphabet)
                           for v in schema.x_vars),
            y_table=_attribute_table(attrs.get(schema.y_var.name), schema.y_var.alphabet),
        )
    elif mspec["kind"] == "rule_table":
        metric = DistortionMetric("rule_table", rules=tuple(
            TableRule(value=float(r["value"]),
                      if_all=tuple(map(_condition, r.get("if_all", []))),
                      if_any=tuple(map(_condition, r.get("if_any", []))))
            for r in mspec["rules"]
        ))
    else:
        raise ConfigError(f"unknown metric kind {mspec['kind']!r}")
    validate_metric(metric, schema)
    bspec = raw["budget"]
    if bspec["mode"] == "expected":
        budget = DistortionBudget("expected", c=float(bspec["c"]))
    else:
        budget = DistortionBudget("thresholded", pairs=tuple(map(tuple, bspec["pairs"])))
    return metric, budget


def _attribute_table(aspec: Optional[dict], alphabet: Alphabet) -> np.ndarray:
    """The penalty table of one attribute; no rule costs nothing."""
    if aspec is None:
        return np.zeros((len(alphabet),) * 2)
    kind = aspec.get("kind", "table")
    if kind == "ordinal_jump":
        return ordinal_jump_table(
            len(alphabet),
            {int(k): float(v) for k, v in aspec.get("penalties", {}).items()},
            above=float(aspec.get("above", FORBIDDEN)),
        )
    if kind == "table":
        return label_table(
            alphabet.categories,
            {
                str(f): {str(t): float(v) for t, v in row.items()}
                for f, row in aspec.get("values", {}).items()
            },
        )
    raise ConfigError(f"unknown attribute rule kind {kind!r}")


def _condition(c: dict) -> RuleCondition:
    keys = {
        "jump", "jump_min", "jump_max", "abs_jump", "abs_jump_min", "abs_jump_max",
    }
    return RuleCondition(
        var=str(c["var"]),
        **{k: int(v) for k, v in c.items() if k in keys},
    )


def config_from_dict(raw: dict) -> PipelineConfig:
    """Validate and compile a raw mapping into a ready configuration.

    Every malformed or incomplete configuration ends here as one
    ``ConfigError``: a missing field (``KeyError``), a section that is no
    mapping (``AttributeError``), and a value of the wrong type or outside
    its domain (``TypeError``, ``ValueError``; ``InvalidParamsError`` is a
    ``ValueError``).  A ``_NUMBERS`` field that does not convert is named.
    """
    if not isinstance(raw, dict):
        raise ConfigError("configuration must be a mapping")
    name = None  # of the _NUMBERS field being converted
    try:
        raw = _canonical(raw)
        for section, key, kind in _NUMBERS:
            name = f"{section}.{key}" if section else key
            holder = raw[section] if section else raw
            holder[key] = kind(holder[key])
        name = None
        return _compile(raw)
    except KeyError as exc:
        raise ConfigError(f"missing config field {exc}") from exc
    except AttributeError as exc:  # .get on a section that is no mapping
        raise ConfigError(f"config section is not a mapping ({exc})") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}" if name else str(exc)) from exc


def _compile(raw: dict) -> PipelineConfig:
    """The configuration of a canonical mapping with converted numbers."""
    if not raw["schema"]["variables"]:
        raise ConfigError("schema.variables must be non-empty")
    schema = _build_schema(raw)
    filters = tuple(
        Filter(f["column"], f["op"], f["value"]) for f in raw["schema"]["filters"]
    )
    disc = _build_discrimination(raw, schema)
    metric, budget = _build_metric(raw["distortion"], schema)
    objective = raw["objective"]
    if objective not in ("kl", "l1"):
        raise ConfigError(f"unknown objective {objective!r}")
    solver = SolverConfig(
        tol=raw["solver"]["tol"],
        max_iters=raw["solver"]["max_iters"],
        strategy=raw["solver"]["strategy"],
        max_outer=raw["solver"]["max_outer"],
    )
    columns = raw["input"]["columns"]
    return PipelineConfig(
        input_path=raw["input"]["path"],
        delimiter=raw["input"]["delimiter"],
        has_header=raw["input"]["has_header"],
        columns=tuple(columns) if columns else None,
        schema=schema,
        filters=filters,
        discrimination=disc,
        metric=metric,
        budget=budget,
        objective=objective,
        solver=solver,
        seed=raw["seed"],
        output_dir=raw["output"]["dir"],
        raw=raw,
    )


def load_config(path: str) -> PipelineConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return config_from_dict(raw or {})


def loads_config(text: str) -> PipelineConfig:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return config_from_dict(raw or {})
