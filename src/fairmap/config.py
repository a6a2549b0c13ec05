"""Pipeline configuration: a single YAML document describing ingestion,
schema, fairness specs, objective, solver settings, and outputs.

One field table states every key with its default and converter, so the
filled form is canonical (load -> serialize -> load is the identity) and
configs that compile alike fingerprint alike.  The fingerprint covers
everything that determines the learned kernel; artifacts embed it so
audits can refuse mismatched inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import operator
from dataclasses import dataclass, field
from typing import Optional

import yaml

from .constants import DEFAULT_MAX_ITERS, DEFAULT_TOL, FORBIDDEN
from .constraints import DiscriminationSpec
from .distortion import (
    DistortionBudget,
    DistortionMetric,
    RuleCondition,
    TableRule,
    distortion_matrix,
    label_table,
    ordinal_jump_table,
)
from .domain import Alphabet, Quantizer, Schema, Variable
from .errors import ConfigError, decode_utf8

# libyaml's parser where PyYAML was built with it (a config loads several
# times faster)
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_COMPARISONS = {"==": operator.eq, "!=": operator.ne, "<": operator.lt,
                "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Filter:
    """Row predicate applied at ingestion, before quantization."""

    column: str
    op: str
    value: object

    def __post_init__(self):
        if self.op not in _OPERANDS:
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
    tol: float
    max_iters: int
    strategy: str  # full | sof_fix_conditional | sof_alternating
    max_outer: int

    def __post_init__(self):
        if not self.tol > 0:  # NaN fails this test too
            raise ConfigError("solver tol must be positive")
        for name in ("max_iters", "max_outer"):
            if getattr(self, name) < 1:
                raise ConfigError(f"solver {name} must be at least 1")
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
            k: self.raw[k]
            for k in ("schema", "discrimination", "distortion", "objective", "solver")
        }
        blob = json.dumps(parts, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def to_dict(self) -> dict:
        return json.loads(json.dumps(self.raw))

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.to_dict(), sort_keys=True)


# -- the field table ---------------------------------------------------------
# A table maps each key to (default, converter).  A converter takes a value
# and its dotted path and returns the canonical value; it runs on defaults
# too, so an absent section is filled like a written one.  A field whose
# default is null may be null.

REQUIRED = object()  # default of a field that must be written


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{path or 'configuration'}: not a mapping")
    return value


def _fill(value, fields: dict, path: str) -> dict:
    """``value`` converted field by field, absent fields at their default;
    a missing required field or an unknown one is a ``ConfigError``."""
    for key in _mapping(value, path):
        if key not in fields:
            raise ConfigError(f"{_at(path, key)}: unknown field")
    out = {}
    for key, (default, convert) in fields.items():
        if key not in value and default is REQUIRED:
            raise ConfigError(f"{_at(path, key)}: missing field")
        v = value.get(key, default)
        out[key] = None if v is None and default is None else convert(v, _at(path, key))
    return out


def _scalar(kind, types=(str, int, float)):
    """Converter of one value of ``types`` through ``kind``."""
    def convert(value, path):
        if not isinstance(value, types):
            raise ConfigError(f"{path}: unexpected {type(value).__name__} {value!r}")
        try:
            return kind(value)
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return convert


_str, _int, _float, _bool = _scalar(str), _scalar(int), _scalar(float), _scalar(bool, bool)
_value = _scalar(lambda v: v)  # a filter operand, compared as a number or text


def _delimiter(value, path):
    """One character that can separate fields: not a quote, CR or LF."""
    value = _str(value, path)
    if len(value) != 1 or value in '"\r\n':
        raise ConfigError(f"{path}: {value!r} is not one character other than"
                          " a quote, CR or LF")
    return value


def _list(item, length=None):
    def convert(value, path):
        if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
            raise ConfigError(f"{path}: {value!r} is not a list"
                              + (f" of {length}" if length else ""))
        return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return convert


def _dict(key, item):
    return lambda value, path: {
        key(k, path): item(v, _at(path, k)) for k, v in _mapping(value, path).items()
    }


def _section(fields):
    return lambda value, path: _fill(value, fields, path)


def _kinds(key, default, tables):
    """Converter of a mapping whose ``key`` field picks its field table."""
    def convert(value, path):
        kind = _mapping(value, path).get(key, default)
        if not isinstance(kind, str) or kind not in tables:
            raise ConfigError(f"{_at(path, key)}: must be one of {', '.join(tables)}")
        return _fill(value, {key: (default, _str), **tables[kind]}, path)
    return convert


def _discrimination(groups):
    """The fields of one discrimination mode, whose epsilon entries name
    ``groups``."""
    entries = _list(_section({"y": (REQUIRED, _str), **groups, "value": (REQUIRED, _float)}))

    def epsilon(value, path):
        return (entries if isinstance(value, (list, tuple)) else _float)(value, path)
    return {"epsilon": (0.1, epsilon), "target": (None, _list(_float)),
            "condition_on": ([], _list(_str)), "min_cell_count": (20, _int)}


_PAIR = _list(_float, 2)

_QUANTIZER = _kinds("kind", "identity", {
    "identity": {},
    "map": {"mapping": (REQUIRED, _dict(_str, _str)), "default": (None, _str),
            "drop_unmapped": (False, _bool)},
    "bins": {"edges": (REQUIRED, _list(_float)), "labels": (REQUIRED, _list(_str))},
})

_VARIABLE = {
    "name": (REQUIRED, _str), "role": (REQUIRED, _str),
    "categories": (REQUIRED, _list(_str)), "ordinal": (False, _bool),
    "quantizer": (None, _QUANTIZER),
}

_OPERANDS = {**dict.fromkeys(_COMPARISONS, _value),
             "in": _list(_value), "not_in": _list(_value), "between": _PAIR}
_FILTER = _kinds("op", REQUIRED, {
    op: {"column": (REQUIRED, _str), "value": (REQUIRED, operand)}
    for op, operand in _OPERANDS.items()
})

_DISCRIMINATION = _kinds("mode", "target", {
    "target": _discrimination({"d": (REQUIRED, _str)}),
    "pairwise": _discrimination({"d1": (REQUIRED, _str), "d2": (REQUIRED, _str)}),
    "conditional": _discrimination({"d": (REQUIRED, _str), "b": (REQUIRED, _int)}),
})

_ATTRIBUTE = _kinds("kind", "table", {
    "ordinal_jump": {"penalties": ({}, _dict(_int, _float)), "above": (FORBIDDEN, _float)},
    "table": {"values": ({}, _dict(_str, _dict(_str, _float)))},
})

_JUMPS = ("jump", "jump_min", "jump_max", "abs_jump", "abs_jump_min", "abs_jump_max")
_CONDITIONS = _list(_section({"var": (REQUIRED, _str), **dict.fromkeys(_JUMPS, (None, _int))}))

_METRIC = _kinds("kind", "per_attribute", {
    "per_attribute": {"combiner": ("sum_of_squares", _str),
                      "attributes": ({}, _dict(_str, _ATTRIBUTE))},
    "rule_table": {"rules": ([], _list(_section({
        "value": (REQUIRED, _float), "if_all": ([], _CONDITIONS), "if_any": ([], _CONDITIONS),
    })))},
})

_BUDGET = _kinds("mode", "expected", {
    "expected": {"c": (REQUIRED, _float)},
    "thresholded": {"pairs": (REQUIRED, _list(_PAIR))},
})

_FIELDS = {
    "input": ({}, _section({
        "path": ("", _str), "delimiter": (",", _delimiter), "has_header": (True, _bool),
        "columns": (None, _list(_str)),
    })),
    "schema": (REQUIRED, _section({
        "variables": (REQUIRED, _list(_section(_VARIABLE))),
        "filters": ([], _list(_FILTER)),
    })),
    "discrimination": ({}, _DISCRIMINATION),
    "distortion": (None, _section({"metric": ({}, _METRIC), "budget": ({}, _BUDGET)})),
    "objective": ("kl", _str),
    "solver": ({}, _section({
        "tol": (DEFAULT_TOL, _float), "max_iters": (DEFAULT_MAX_ITERS, _int),
        "strategy": ("full", _str), "max_outer": (100, _int),
    })),
    "seed": (0, _int),
    "output": ({}, _section({"dir": ("out", _str)})),
}


# -- compiling the filled form -----------------------------------------------

def _epsilon(eps, schema: Schema):
    """A scalar, or the map keyed by (y, then each entry's groups in the
    order its mode declares them)."""
    if not isinstance(eps, list):
        return eps

    def key(e):
        groups = (v if k == "b" else schema.d_from_label(v)
                  for k, v in e.items() if k not in ("y", "value"))
        return (schema.y_from_label(e["y"]), *groups)
    return {key(e): e["value"] for e in eps}


def _build_metric(dist: Optional[dict], schema: Schema):
    if dist is None:
        return None, None
    mspec = dist["metric"]
    if mspec["kind"] == "per_attribute":
        attrs = mspec["attributes"]
        names = {v.name for v in (*schema.x_vars, schema.y_var)}
        for name in attrs:
            if name not in names:
                raise ConfigError(f"distortion.metric.attributes.{name}:"
                                  f" no feature or outcome variable of that name")
        metric = DistortionMetric(
            "per_attribute",
            combiner=mspec["combiner"],
            x_tables=tuple(_attribute_table(attrs.get(v.name), v.alphabet)
                           for v in schema.x_vars),
            y_table=_attribute_table(attrs.get(schema.y_var.name), schema.y_var.alphabet),
        )
    else:
        metric = DistortionMetric("rule_table", rules=tuple(
            TableRule(value=r["value"],
                      if_all=tuple(RuleCondition(**c) for c in r["if_all"]),
                      if_any=tuple(RuleCondition(**c) for c in r["if_any"]))
            for r in mspec["rules"]
        ))
    distortion_matrix(metric, schema)
    return metric, _built("distortion.budget", DistortionBudget, dist["budget"])


def _attribute_table(aspec: Optional[dict], alphabet: Alphabet):
    """The penalty table of one attribute; no rule costs nothing."""
    if aspec is None:
        return label_table(alphabet.categories, {})
    if aspec["kind"] == "ordinal_jump":
        return ordinal_jump_table(len(alphabet), aspec["penalties"], above=aspec["above"])
    return label_table(alphabet.categories, aspec["values"])


def _built(path: str, build, fields: dict):
    """``build(**fields)``, whose refusal of a value names ``path``."""
    try:
        return build(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(raw: dict) -> PipelineConfig:
    """Validate and compile a raw mapping into a ready configuration.

    Every malformed or incomplete configuration ends here as one
    ``ConfigError``: the field table names a missing, unknown or
    unconvertible field by its dotted path, and the constructors refuse a
    value outside its domain (``InvalidParamsError`` is a ``ValueError``).
    """
    raw = _fill(raw, _FIELDS, "")
    try:
        return _compile(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _compile(raw: dict) -> PipelineConfig:
    """The configuration of a filled mapping."""
    schema = Schema(tuple(
        Variable(Alphabet(v["name"], tuple(v["categories"]), v["ordinal"]), v["role"],
                 None if v["quantizer"] is None else
                 _built(f"schema.variables[{i}].quantizer", Quantizer, v["quantizer"]))
        for i, v in enumerate(raw["schema"]["variables"])
    ))
    disc = raw["discrimination"]
    x_names = {v.name for v in schema.x_vars}
    for name in disc["condition_on"]:
        if name not in x_names:
            raise ConfigError(f"condition_on variable {name!r} is not a feature variable")
    metric, budget = _build_metric(raw["distortion"], schema)
    if raw["objective"] not in ("kl", "l1"):
        raise ConfigError(f"unknown objective {raw['objective']!r}")
    inp = raw["input"]
    return PipelineConfig(
        input_path=inp["path"],
        delimiter=inp["delimiter"],
        has_header=inp["has_header"],
        columns=tuple(inp["columns"]) if inp["columns"] else None,
        schema=schema,
        filters=tuple(Filter(**f) for f in raw["schema"]["filters"]),
        discrimination=DiscriminationSpec(
            **{**disc, "epsilon": _epsilon(disc["epsilon"], schema)}),
        metric=metric,
        budget=budget,
        objective=raw["objective"],
        solver=SolverConfig(**raw["solver"]),
        seed=raw["seed"],
        output_dir=raw["output"]["dir"],
        raw=raw,
    )


def load_config(path: str) -> PipelineConfig:
    with open(path, "rb") as fh:
        text = io.StringIO(decode_utf8(fh.read(), path, ConfigError))
    text.name = path  # the name YAML's error messages give the file
    return _parse(text, path)


def loads_config(text: str) -> PipelineConfig:
    return _parse(text, "config")


def _parse(text, name: str) -> PipelineConfig:
    try:
        raw = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:  # PyYAML's message spans lines; an error is one
        raise ConfigError(f"cannot parse {name}: {' '.join(str(exc).split())}") from exc
    return config_from_dict(raw or {})
