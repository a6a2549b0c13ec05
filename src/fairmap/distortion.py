"""Per-individual distortion metrics over (features, outcome) pairs.

Two metric families cover the shipped presets and user configs:

* per-attribute: a penalty table per feature variable plus one for the
  outcome, combined by plain sum or sum of squares;
* rule table: an ordered list of predicate -> value rules over the whole
  ((x, y), (x_hat, y_hat)) pair, for metrics that do not decompose per
  attribute.

Both compile to a dense matrix over flattened (x, y) cells, which is what
the constraint assembler and the auditors consume; building it is the one
check of a metric, so the library refuses what ``fairmap validate``
refuses.  ``evaluate_distortion`` is the scalar reference path and is
kept deliberately independent of the vectorized matrix builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .constants import FORBIDDEN
from .errors import InvalidParamsError
from .domain import Schema

COMBINE_SUM = "sum"
COMBINE_SUM_OF_SQUARES = "sum_of_squares"


def ordinal_jump_table(size: int, penalties: Mapping[int, float],
                       above: float = FORBIDDEN) -> np.ndarray:
    """Penalty matrix for an ordinal variable from jump-size penalties.

    Jump 0 costs 0; listed jump sizes use their penalty; any other
    nonzero jump costs ``above`` (defaults to the forbidden level).
    """
    table = np.zeros((size, size))
    for i in range(size):
        for j in range(size):
            jump = abs(i - j)
            if jump == 0:
                continue
            table[i, j] = float(penalties.get(jump, above))
    return table


def label_table(categories: tuple[str, ...],
                values: Mapping[str, Mapping[str, float]]) -> np.ndarray:
    """Penalty matrix from an explicit from-label -> to-label -> value map.

    Unlisted transitions cost 0; the diagonal must not be given a nonzero
    value.
    """
    size = len(categories)
    index = {c: i for i, c in enumerate(categories)}
    table = np.zeros((size, size))
    for frm, row in values.items():
        for to, val in row.items():
            if frm not in index or to not in index:
                raise InvalidParamsError(f"unknown category in table: {frm!r}->{to!r}")
            if frm == to and float(val) != 0.0:
                raise InvalidParamsError("identity transitions must cost 0")
            table[index[frm], index[to]] = float(val)
    return table


@dataclass(frozen=True)
class RuleCondition:
    """Constraint on one variable's category-index jump (to - from).

    ``var`` names a feature variable or the outcome variable.  All given
    bounds must hold for the condition to match.
    """

    var: str
    jump: Optional[int] = None
    jump_min: Optional[int] = None
    jump_max: Optional[int] = None
    abs_jump: Optional[int] = None
    abs_jump_min: Optional[int] = None
    abs_jump_max: Optional[int] = None

    def matches(self, delta: int) -> bool:
        checks = (
            (self.jump is None or delta == self.jump),
            (self.jump_min is None or delta >= self.jump_min),
            (self.jump_max is None or delta <= self.jump_max),
            (self.abs_jump is None or abs(delta) == self.abs_jump),
            (self.abs_jump_min is None or abs(delta) >= self.abs_jump_min),
            (self.abs_jump_max is None or abs(delta) <= self.abs_jump_max),
        )
        return all(checks)


@dataclass(frozen=True)
class TableRule:
    """One ordered rule: value applies when all of ``if_all`` match and,
    when ``if_any`` is nonempty, at least one of those matches too."""

    value: float
    if_all: tuple[RuleCondition, ...] = ()
    if_any: tuple[RuleCondition, ...] = ()


@dataclass(frozen=True)
class DistortionMetric:
    """Distortion over transitions between (x, y) cells.

    kind "per_attribute" uses ``x_tables`` (one penalty matrix per feature
    variable, schema order) and ``y_table``, combined by ``combiner``.
    kind "rule_table" evaluates ``rules`` first-match with default 0.
    """

    kind: str
    combiner: str = COMBINE_SUM_OF_SQUARES
    x_tables: tuple[np.ndarray, ...] = ()
    y_table: Optional[np.ndarray] = None
    rules: tuple[TableRule, ...] = ()

    def __post_init__(self):
        if self.kind not in ("per_attribute", "rule_table"):
            raise InvalidParamsError(f"unknown metric kind {self.kind!r}")
        if self.kind == "per_attribute":
            if self.combiner not in (COMBINE_SUM, COMBINE_SUM_OF_SQUARES):
                raise InvalidParamsError(f"unknown combiner {self.combiner!r}")
            tables = tuple(np.asarray(t, dtype=np.float64) for t in self.x_tables)
            object.__setattr__(self, "x_tables", tables)
            if self.y_table is not None:
                object.__setattr__(
                    self, "y_table", np.asarray(self.y_table, dtype=np.float64)
                )


def evaluate_distortion(metric: DistortionMetric, schema: Schema,
                        from_cell: tuple[int, int],
                        to_cell: tuple[int, int]) -> float:
    """Distortion of moving one individual from (x, y) to (x_hat, y_hat)."""
    x_from, y_from = from_cell
    x_to, y_to = to_cell
    parts_from = np.unravel_index(x_from, schema.x_sizes)
    parts_to = np.unravel_index(x_to, schema.x_sizes)
    if metric.kind == "per_attribute":
        pens = [
            float(t[i, j]) for t, i, j in zip(metric.x_tables, parts_from, parts_to)
        ]
        pens.append(float(metric.y_table[y_from, y_to]))
        if metric.combiner == COMBINE_SUM_OF_SQUARES:
            return float(sum(p * p for p in pens))
        return float(sum(pens))
    jumps = {
        var.name: parts_to[i] - parts_from[i]
        for i, var in enumerate(schema.x_vars)
    }
    jumps[schema.y_var.name] = y_to - y_from
    for rule in metric.rules:
        if all(c.matches(jumps[c.var]) for c in rule.if_all) and (
            not rule.if_any or any(c.matches(jumps[c.var]) for c in rule.if_any)
        ):
            return float(rule.value)
    return 0.0


def _x_parts(schema: Schema) -> np.ndarray:
    """(nx, n_xvars) per-variable category indices of each flattened x."""
    grids = np.unravel_index(np.arange(schema.nx), schema.x_sizes)
    return np.stack(grids, axis=1)


def distortion_matrix(metric: DistortionMetric, schema: Schema) -> np.ndarray:
    """Dense (nx*ny, nx*ny) matrix of distortions; cell index is x*2 + y.

    The one check of a metric against a schema: refuses tables that do not
    fit it, a negative or NaN penalty or rule value, a rule on a name that
    is no feature or outcome, and (last, on the matrix) a nonzero identity.
    """
    nx, ny = schema.nx, schema.ny
    parts = _x_parts(schema)
    if metric.kind == "per_attribute":
        if len(metric.x_tables) != len(schema.x_vars):
            raise InvalidParamsError("need one penalty table per feature variable")
        xpart = np.zeros((nx, nx))
        for i, (table, var) in enumerate(zip(metric.x_tables, schema.x_vars)):
            k = len(var.alphabet)
            if table.shape != (k, k):
                raise InvalidParamsError(f"table for {var.name!r} must be {k}x{k}")
            if not (table >= 0).all():  # NaN fails this test too
                raise InvalidParamsError("distortion penalty is negative or NaN")
            pen = table[parts[:, None, i], parts[None, :, i]]
            xpart += pen**2 if metric.combiner == COMBINE_SUM_OF_SQUARES else pen
        ypen = metric.y_table
        if ypen is None:
            raise InvalidParamsError("per-attribute metric needs a y_table")
        if ypen.shape != (2, 2) or not (ypen >= 0).all():
            raise InvalidParamsError("y_table must be 2x2, nonnegative and not NaN")
        ypart = ypen**2 if metric.combiner == COMBINE_SUM_OF_SQUARES else ypen
        full = xpart[:, None, :, None] + ypart[None, :, None, :]
    else:
        matched = np.zeros((nx, ny, nx, ny), dtype=bool)
        full = np.zeros((nx, ny, nx, ny))
        # each variable's category-index jump (to - from), shaped to
        # broadcast over (x_from, y_from, x_to, y_to)
        jump_x = parts[None, :, :] - parts[:, None, :]
        jumps = {var.name: jump_x[:, None, :, None, i]
                 for i, var in enumerate(schema.x_vars)}
        jump_y = np.arange(ny)[None, :] - np.arange(ny)[:, None]
        jumps[schema.y_var.name] = jump_y[None, :, None, :]
        for rule in metric.rules:
            if not rule.value >= 0:
                raise InvalidParamsError("distortion penalty is negative or NaN")
            for cond in rule.if_all + rule.if_any:
                if cond.var not in jumps:
                    raise InvalidParamsError(f"rule condition on unknown {cond.var!r}")
            mask = np.ones((nx, ny, nx, ny), dtype=bool)
            for cond in rule.if_all:
                mask &= _bounds_mask(jumps[cond.var], cond)
            if rule.if_any:
                any_mask = np.zeros((nx, ny, nx, ny), dtype=bool)
                for cond in rule.if_any:
                    any_mask |= _bounds_mask(jumps[cond.var], cond)
                mask &= any_mask
            take = mask & ~matched
            full[take] = rule.value
            matched |= mask
    matrix = full.reshape(nx * ny, nx * ny)
    if np.diagonal(matrix).any():  # every entry is >= 0 by now
        raise InvalidParamsError("identity transitions must cost 0")
    return matrix


def _bounds_mask(delta: np.ndarray, cond: RuleCondition) -> np.ndarray:
    """Where the jump ``delta`` meets every bound ``cond`` gives."""
    mask = np.ones(delta.shape, dtype=bool)
    if cond.jump is not None:
        mask = mask & (delta == cond.jump)
    if cond.jump_min is not None:
        mask = mask & (delta >= cond.jump_min)
    if cond.jump_max is not None:
        mask = mask & (delta <= cond.jump_max)
    adelta = np.abs(delta)
    if cond.abs_jump is not None:
        mask = mask & (adelta == cond.abs_jump)
    if cond.abs_jump_min is not None:
        mask = mask & (adelta >= cond.abs_jump_min)
    if cond.abs_jump_max is not None:
        mask = mask & (adelta <= cond.abs_jump_max)
    return mask


def _check_budget(b) -> None:
    """Refuse a negative or infinite budget, and a NaN one unless it marks
    a cell without a budget in a per-cell array (``MissingBudgetError`` if
    that cell has mass)."""
    arr = np.asarray(b, dtype=np.float64)
    if (arr < 0).any() or (arr.ndim == 0 and np.isnan(arr)):
        raise InvalidParamsError("budget is negative or NaN")
    if np.isinf(arr).any():
        raise InvalidParamsError(
            "budget is infinite; give a large finite c, or leave out distortion"
        )


@dataclass(frozen=True)
class DistortionBudget:
    """Budgets on the distortion a transform may inflict per input cell,
    stored in one form: ``pairs``, a list of (threshold, budget).

    mode "expected": a bound on each cell's conditional expected
    distortion; ``c`` is a scalar or an (nd, nx, ny) array, and ``pairs``
    is the single pair (None, c).
    mode "thresholded": bounds on exceedance probabilities; ``pairs`` is
    given, thresholds nonnegative and strictly increasing, scalar budgets
    nonincreasing.
    A budget may be a per-cell array in either mode.
    """

    mode: str
    c: object = None
    pairs: tuple[tuple[Optional[float], object], ...] = ()

    def __post_init__(self):
        if self.mode not in ("expected", "thresholded"):
            raise InvalidParamsError(f"unknown budget mode {self.mode!r}")
        if self.mode == "expected":
            if self.c is None:
                raise InvalidParamsError("expected budget needs c")
            if self.pairs:
                raise InvalidParamsError("expected budget takes c, not pairs")
            pairs = ((None, self.c),)
        else:
            if self.c is not None:
                raise InvalidParamsError("thresholded budget takes pairs, not c")
            pairs = tuple((float(t), b) for t, b in self.pairs)
            if not pairs:
                raise InvalidParamsError("thresholded budget needs pairs")
            thresholds = [t for t, _ in pairs]
            if np.isnan(thresholds).any() or not (np.diff(thresholds) > 0).all():
                raise InvalidParamsError("thresholds must be strictly increasing numbers")
            if thresholds[0] < 0:
                # every distortion is >= 0: D > t would hold on every
                # entry, the identity's too
                raise InvalidParamsError("thresholds must be nonnegative")
        pairs = tuple(
            (t, b if np.isscalar(b) else np.asarray(b, dtype=np.float64))
            for t, b in pairs
        )
        for _, b in pairs:
            _check_budget(b)
        if all(np.isscalar(b) for _, b in pairs) and any(
            b2 > b1 + 1e-15 for (_, b1), (_, b2) in zip(pairs, pairs[1:])
        ):
            raise InvalidParamsError("budgets must be nonincreasing across thresholds")
        object.__setattr__(self, "pairs", pairs)
        if self.mode == "expected":
            object.__setattr__(self, "c", pairs[0][1])

    def cells(self, shape: tuple[int, int, int]):
        """(threshold, budget) pairs, each budget on the full (nd, nx, ny)
        grid: a scalar is broadcast, an array must have ``shape``."""
        out = []
        for t, b in self.pairs:
            if np.isscalar(b):
                b = np.full(shape, float(b))
            elif b.shape != shape:
                raise InvalidParamsError(f"budget array must have shape {shape}")
            out.append((t, b))
        return out
