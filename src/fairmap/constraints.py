"""Assembly of discrimination and distortion constraints.

Every constraint emitted here is affine in the transformation-kernel
variables: one probability row per positive-mass input cell (d, x, y),
laid out row-major over transformed cells (x_hat, y_hat).  Constraint
sets are plain ``G k <= h`` blocks with labels for diagnostics, so the
solver and the auditors share one representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .domain import JointPMF, Schema
from .distortion import DistortionBudget, DistortionMetric, distortion_matrix
from .errors import (
    InvalidParamsError,
    MissingBudgetError,
    UnknownVariableError,
    ZeroReferenceError,
)

MODE_TARGET = "target"
MODE_PAIRWISE = "pairwise"
MODE_CONDITIONAL = "conditional"


def ratio_distance(p: float, q: float) -> float:
    """Probability ratio measure |p/q - 1|; the discrimination distance."""
    if q == 0:
        raise ZeroReferenceError("ratio distance needs a positive reference")
    return abs(p / q - 1.0)


@dataclass(frozen=True)
class DiscriminationSpec:
    """What "non-discriminatory" means for one fit.

    mode "target": transformed outcome rates per group stay within epsilon
    (in ratio distance) of a target outcome distribution.
    mode "pairwise": rates stay within epsilon of each other for every
    pair of groups; needs no target.
    mode "conditional": the target constraint, additionally conditioned on
    a subset of feature variables.

    ``epsilon`` is a scalar broadcast everywhere, or a map keyed by
    (y, d) / (y, d1, d2) / (y, d, b) index tuples.
    """

    mode: str = MODE_TARGET
    target: Optional[np.ndarray] = None
    epsilon: object = 0.1
    condition_on: tuple[str, ...] = ()
    min_cell_count: int = 20

    def __post_init__(self):
        if self.mode not in (MODE_TARGET, MODE_PAIRWISE, MODE_CONDITIONAL):
            raise InvalidParamsError(f"unknown discrimination mode {self.mode!r}")
        if self.target is not None:
            target = np.asarray(self.target, dtype=np.float64)
            if target.shape != (2,) or (target < 0).any() or abs(target.sum() - 1) > 1e-9:
                raise InvalidParamsError("target must be a distribution over outcomes")
            object.__setattr__(self, "target", target)
        if np.isscalar(self.epsilon):
            if self.epsilon < 0:
                raise InvalidParamsError("epsilon must be nonnegative")
        else:
            eps = dict(self.epsilon)
            if any(v < 0 for v in eps.values()):
                raise InvalidParamsError("epsilon must be nonnegative")
            object.__setattr__(self, "epsilon", eps)
        if self.mode != MODE_CONDITIONAL and self.condition_on:
            raise InvalidParamsError("condition_on only applies to conditional mode")
        object.__setattr__(self, "condition_on", tuple(self.condition_on))

    def eps(self, key: tuple) -> float:
        if np.isscalar(self.epsilon):
            return float(self.epsilon)
        try:
            return float(self.epsilon[key])
        except KeyError:
            raise InvalidParamsError(f"no epsilon for {key}") from None

    def with_epsilon(self, epsilon) -> "DiscriminationSpec":
        return DiscriminationSpec(
            self.mode, self.target, epsilon, self.condition_on, self.min_cell_count
        )

    def resolve_target(self, pmf: JointPMF) -> np.ndarray:
        """Explicit target, or the original outcome marginal by default."""
        target = self.target if self.target is not None else pmf.p_y()
        if (target <= 0).any():
            raise ZeroReferenceError(
                "target distribution must be positive on both outcomes"
            )
        return np.asarray(target, dtype=np.float64)


@dataclass(frozen=True)
class VariableLayout:
    """Kernel variable layout: one simplex row per positive-mass input cell."""

    schema: Schema
    cells: tuple[tuple[int, int, int], ...]  # (d, x, y), lexicographic
    weights: np.ndarray  # p(d, x, y) per row

    @classmethod
    def from_pmf(cls, pmf: JointPMF) -> "VariableLayout":
        d_idx, x_idx, y_idx = np.nonzero(pmf.mass > 0.0)
        cells = tuple(zip(d_idx.tolist(), x_idx.tolist(), y_idx.tolist()))
        weights = pmf.mass[d_idx, x_idx, y_idx]
        return cls(pmf.schema, cells, weights)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def row_dim(self) -> int:
        return self.schema.nx * self.schema.ny

    @property
    def n_vars(self) -> int:
        return self.n_rows * self.row_dim

    def input_cell_index(self, row: int) -> int:
        """Flattened (x, y) cell the row's input occupies."""
        _, x, y = self.cells[row]
        return x * self.schema.ny + y


@dataclass(frozen=True)
class LinearConstraintSet:
    """Affine inequalities ``G k <= h`` over kernel variables."""

    G: sp.csr_matrix
    h: np.ndarray
    labels: tuple[str, ...]
    warnings: tuple[str, ...] = ()
    fixed_zero: Optional[np.ndarray] = None  # variables pinned to zero

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.float64)
        h.flags.writeable = False
        object.__setattr__(self, "h", h)
        if self.G.shape[0] != h.size or len(self.labels) != h.size:
            raise InvalidParamsError("constraint blocks misaligned")

    @property
    def n_constraints(self) -> int:
        return int(self.h.size)

    def residuals(self, kvec: np.ndarray) -> np.ndarray:
        """Signed violations G k - h (positive means violated)."""
        if self.n_constraints == 0:
            return np.zeros(0)
        return np.asarray(self.G @ kvec - self.h)

    @staticmethod
    def empty(n_vars: int) -> "LinearConstraintSet":
        return LinearConstraintSet(
            sp.csr_matrix((0, n_vars)), np.zeros(0), (), (), None
        )

    @staticmethod
    def concat(sets: Sequence["LinearConstraintSet"], n_vars: int) -> "LinearConstraintSet":
        sets = [s for s in sets if s is not None]
        if not sets:
            return LinearConstraintSet.empty(n_vars)
        G = sp.vstack([s.G for s in sets], format="csr")
        h = np.concatenate([s.h for s in sets])
        labels = tuple(l for s in sets for l in s.labels)
        warnings = tuple(w for s in sets for w in s.warnings)
        fixed = None
        for s in sets:
            if s.fixed_zero is not None:
                fixed = s.fixed_zero if fixed is None else (fixed | s.fixed_zero)
        return LinearConstraintSet(G, h, labels, warnings, fixed)


def group_rate_coefficients(pmf: JointPMF, layout: VariableLayout,
                            d: int, y: int) -> Optional[np.ndarray]:
    """Coefficient vector c with c . k = p_{Y_hat|D}(y | d), or None for a
    zero-mass group."""
    p_d = pmf.p_d()[d]
    if p_d <= 0.0:
        return None
    schema = layout.schema
    coef = np.zeros(layout.n_vars)
    for row, (dd, _, _) in enumerate(layout.cells):
        if dd != d:
            continue
        w = layout.weights[row] / p_d
        base = row * layout.row_dim
        coef[base + y : base + layout.row_dim : schema.ny] = w
    return coef


def build_discrimination_constraints(
    spec: DiscriminationSpec, pmf: JointPMF, layout: Optional[VariableLayout] = None
) -> LinearConstraintSet:
    """Linear inequalities implementing the chosen discrimination control.

    Target mode bounds each group's transformed outcome rate inside
    ``(1 +/- eps) * target``; pairwise mode bounds each pair of group
    rates against each other; conditional mode applies the target bound
    inside feature segments.  Zero-mass groups and undersized segments
    are skipped with a warning instead of inventing constraints.
    """
    if layout is None:
        layout = VariableLayout.from_pmf(pmf)
    schema = pmf.schema
    rows, rhs, labels, warnings = [], [], [], []

    if spec.mode == MODE_TARGET:
        target = spec.resolve_target(pmf)
        for d in range(schema.nd):
            coef_by_y = [group_rate_coefficients(pmf, layout, d, y) for y in (0, 1)]
            if coef_by_y[0] is None:
                warnings.append(f"group {schema.d_label(d)!r} has zero mass; skipped")
                continue
            for y in (0, 1):
                eps = spec.eps((y, d))
                name = f"disc[target] y={schema.y_label(y)} d={schema.d_label(d)}"
                rows.append(coef_by_y[y])
                rhs.append((1.0 + eps) * target[y])
                labels.append(name + " upper")
                rows.append(-coef_by_y[y])
                rhs.append(-(1.0 - eps) * target[y])
                labels.append(name + " lower")

    elif spec.mode == MODE_PAIRWISE:
        coef = {}
        for d in range(schema.nd):
            cs = [group_rate_coefficients(pmf, layout, d, y) for y in (0, 1)]
            if cs[0] is None:
                warnings.append(f"group {schema.d_label(d)!r} has zero mass; skipped")
            else:
                coef[d] = cs
        present = sorted(coef)
        for i, d1 in enumerate(present):
            for d2 in present[i + 1 :]:
                for y in (0, 1):
                    e12 = spec.eps((y, d1, d2))
                    e21 = spec.eps((y, d2, d1))
                    name = (
                        f"disc[pairwise] y={schema.y_label(y)}"
                        f" d1={schema.d_label(d1)} d2={schema.d_label(d2)}"
                    )
                    c1, c2 = coef[d1][y], coef[d2][y]
                    rows.append(c1 - (1.0 + e12) * c2)
                    rhs.append(0.0)
                    labels.append(name + " upper(1|2)")
                    rows.append(c2 - (1.0 + e21) * c1)
                    rhs.append(0.0)
                    labels.append(name + " upper(2|1)")
                    if e12 != e21:
                        # asymmetric tolerances: the lower sides are not
                        # implied by the opposite upper sides
                        rows.append((1.0 - e12) * c2 - c1)
                        rhs.append(0.0)
                        labels.append(name + " lower(1|2)")
                        rows.append((1.0 - e21) * c1 - c2)
                        rhs.append(0.0)
                        labels.append(name + " lower(2|1)")

    else:  # conditional target
        if not spec.condition_on:
            raise InvalidParamsError("conditional mode needs condition_on variables")
        x_names = [v.name for v in schema.x_vars]
        for name in spec.condition_on:
            if name not in x_names:
                raise UnknownVariableError(name)
        b_pos = [x_names.index(name) for name in spec.condition_on]
        b_sizes = [schema.x_sizes[i] for i in b_pos]
        x_parts = np.stack(
            np.unravel_index(np.arange(schema.nx), schema.x_sizes), axis=1
        )
        b_of_x = np.ravel_multi_index(
            [x_parts[:, i] for i in b_pos], b_sizes
        )
        explicit_target = spec.target
        n = pmf.n
        nb = int(np.prod(b_sizes))
        for d in range(schema.nd):
            for b in range(nb):
                in_cell = [
                    (row, layout.weights[row])
                    for row, (dd, xx, _) in enumerate(layout.cells)
                    if dd == d and b_of_x[xx] == b
                ]
                mass = sum(w for _, w in in_cell)
                b_label = "|".join(
                    schema.x_vars[p].alphabet.categories[i]
                    for p, i in zip(
                        b_pos, np.unravel_index(b, b_sizes)
                    )
                )
                cell_name = f"d={schema.d_label(d)} b={b_label}"
                if mass <= 0.0:
                    warnings.append(f"segment {cell_name} has zero mass; skipped")
                    continue
                if n is not None and mass * n < spec.min_cell_count:
                    warnings.append(
                        f"segment {cell_name} has fewer than"
                        f" {spec.min_cell_count} samples; skipped"
                    )
                    continue
                if explicit_target is not None:
                    target_b = explicit_target
                else:
                    # conditional outcome marginal within the segment
                    seg = np.zeros(2)
                    for x in range(schema.nx):
                        if b_of_x[x] == b:
                            seg += pmf.mass[:, x, :].sum(axis=0)
                    if seg.sum() <= 0:
                        warnings.append(f"segment {cell_name} has zero mass; skipped")
                        continue
                    target_b = seg / seg.sum()
                if (target_b <= 0).any():
                    raise ZeroReferenceError(
                        f"segment target for {cell_name} hits zero"
                    )
                for y in (0, 1):
                    coef = np.zeros(layout.n_vars)
                    for row, w in in_cell:
                        base = row * layout.row_dim
                        coef[base + y : base + layout.row_dim : schema.ny] = w / mass
                    eps = spec.eps((y, d, b))
                    name = f"disc[cond] y={schema.y_label(y)} {cell_name}"
                    rows.append(coef)
                    rhs.append((1.0 + eps) * target_b[y])
                    labels.append(name + " upper")
                    rows.append(-coef)
                    rhs.append(-(1.0 - eps) * target_b[y])
                    labels.append(name + " lower")

    if rows:
        G = sp.csr_matrix(np.vstack(rows))
    else:
        G = sp.csr_matrix((0, layout.n_vars))
    return LinearConstraintSet(G, np.array(rhs), tuple(labels), tuple(warnings))


def build_distortion_constraints(
    metric: DistortionMetric,
    budget: DistortionBudget,
    pmf: JointPMF,
    layout: Optional[VariableLayout] = None,
) -> LinearConstraintSet:
    """Per-input-cell distortion inequalities plus forbidden-entry fixes.

    Expected mode: one expected-distortion bound per positive-mass cell.
    Thresholded mode: one exceedance-probability bound per cell and
    threshold; a zero budget pins the affected entries to zero instead of
    emitting a vacuous inequality.  Entries at or above the forbidden
    level are pinned whenever the budget cannot reach them.
    """
    if layout is None:
        layout = VariableLayout.from_pmf(pmf)
    schema = pmf.schema
    delta = distortion_matrix(metric, schema)
    if np.abs(np.diagonal(delta)).max(initial=0.0) != 0.0:
        raise InvalidParamsError("identity transitions must cost 0")
    shape = (schema.nd, schema.nx, schema.ny)
    data, indices, indptr = [], [], [0]
    rhs, labels = [], []
    fixed = np.zeros(layout.n_vars, dtype=bool)

    if budget.mode == "expected":
        cgrid = budget.cell_c(shape)
        if np.isnan(cgrid[pmf.mass > 0]).any():
            raise MissingBudgetError("budget missing for a positive-mass cell")
        for row, cell in enumerate(layout.cells):
            c = float(cgrid[cell])
            drow = delta[layout.input_cell_index(row)]
            base = row * layout.row_dim
            nz = np.nonzero(drow)[0]
            indices.extend((base + nz).tolist())
            data.extend(drow[nz].tolist())
            indptr.append(len(indices))
            rhs.append(c)
            labels.append(
                f"dist[expected] d={schema.d_label(cell[0])}"
                f" x={schema.x_label(cell[1])} y={schema.y_label(cell[2])}"
            )
            if c < metric.forbidden_level:
                fixed[base + np.nonzero(drow >= metric.forbidden_level)[0]] = True
    else:
        for t, cgrid in budget.cell_pairs(shape):
            if np.isnan(cgrid[pmf.mass > 0]).any():
                raise MissingBudgetError("budget missing for a positive-mass cell")
            for row, cell in enumerate(layout.cells):
                c = float(cgrid[cell])
                drow = delta[layout.input_cell_index(row)]
                over = np.nonzero(drow > t)[0]
                base = row * layout.row_dim
                if c == 0.0:
                    # pin the affected entries as well; the inequality is
                    # kept so restricted reformulations inherit it
                    fixed[base + over] = True
                indices.extend((base + over).tolist())
                data.extend([1.0] * over.size)
                indptr.append(len(indices))
                rhs.append(c)
                labels.append(
                    f"dist[>{t}] d={schema.d_label(cell[0])}"
                    f" x={schema.x_label(cell[1])} y={schema.y_label(cell[2])}"
                )

    G = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(len(rhs), layout.n_vars),
    )
    return LinearConstraintSet(G, np.array(rhs), tuple(labels), (), fixed)
