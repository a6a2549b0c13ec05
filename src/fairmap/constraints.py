"""Assembly of discrimination and distortion constraints.

Every constraint emitted here is affine in the transformation-kernel
variables: one probability row per positive-mass input cell (d, x, y),
laid out row-major over transformed cells (x_hat, y_hat).  Each block
is one sparse array expression over the layout's (d, x, y) index arrays,
returned as ``G k <= h`` with labels for diagnostics: the discrimination
rows are one product C R of a group-rate matrix R and a small
coefficient matrix C, the only place besides h where epsilon enters.
``side_constraints`` builds and stacks every block on the layout entries
that the distortion budget leaves free, the variables of an assembled
program.  Only the solver reads these blocks: the auditors recompute
rates and distortions from the pushforward joint, so they check the
blocks independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._csr import CSR, vstack, zeros
from .constants import FORBIDDEN, ROW_ATOL
from .domain import JointPMF, Schema, composite_labels, probabilities
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
            object.__setattr__(
                self, "target", probabilities(self.target, (2,), ROW_ATOL, "target"))
        # NaN fails the comparison too; HiGHS refuses an infinite row bound
        if np.isscalar(self.epsilon):
            if not 0 <= self.epsilon < np.inf:
                raise InvalidParamsError("epsilon must be finite and nonnegative")
        else:
            eps = dict(self.epsilon)
            if not all(0 <= v < np.inf for v in eps.values()):
                raise InvalidParamsError("epsilon must be finite and nonnegative")
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
    """Kernel variable layout: one simplex row per positive-mass input cell.

    Row r is the input cell (d[r], x[r], y[r]), rows in lexicographic
    order; its ``row_dim`` variables are k_r(x_hat, y_hat) at
    r * row_dim + x_hat * ny + y_hat.
    """

    schema: Schema
    d: np.ndarray
    x: np.ndarray
    y: np.ndarray
    weights: np.ndarray  # p(d, x, y) per row
    row_dim: int = field(init=False)

    @classmethod
    def from_pmf(cls, pmf: JointPMF) -> "VariableLayout":
        d, x, y = np.nonzero(pmf.mass > 0.0)
        return cls(pmf.schema, d, x, y, pmf.mass[d, x, y])

    def __post_init__(self):
        for name, dtype in (("d", np.int64), ("x", np.int64), ("y", np.int64),
                            ("weights", np.float64)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "row_dim", self.schema.nx * self.schema.ny)

    @property
    def n_rows(self) -> int:
        return int(self.weights.size)

    @property
    def n_vars(self) -> int:
        return self.n_rows * self.row_dim


def segments(schema: Schema, condition_on: Sequence[str]) -> tuple[np.ndarray, Sequence[str]]:
    """Segment number b of every feature cell x, and each segment's label.

    b flattens the categories of the ``condition_on`` variables row-major
    in the order given; it is the ``b`` of conditional-mode epsilon keys
    (y, d, b).
    """
    x_names = [v.name for v in schema.x_vars]
    for name in condition_on:
        if name not in x_names:
            raise UnknownVariableError(name)
    pos = [x_names.index(name) for name in condition_on]
    parts = np.unravel_index(np.arange(schema.nx), schema.x_sizes)
    b_of_x = np.ravel_multi_index([parts[i] for i in pos], [schema.x_sizes[i] for i in pos])
    return b_of_x, composite_labels([schema.x_vars[i] for i in pos])


def _rate_matrix(layout: VariableLayout, group: np.ndarray, mass: np.ndarray,
                 free: np.ndarray) -> CSR:
    """R with (R k)[g * ny + y] = p(Y_hat = y | group g) for every group,
    on the layout entries ``free``.

    ``group`` numbers the group of each layout row; row g * ny + y of R
    holds w_r / mass[g] at k_r(x_hat, y) for every row r of group g.
    """
    r, j = np.divmod(free, layout.row_dim)
    g = group[r]
    ny = layout.schema.ny
    return CSR.from_entries(g * ny + j % ny, np.arange(free.size), layout.weights[r] / mass[g],
                            (mass.size * ny, free.size))


def _discrimination_rows(spec: DiscriminationSpec, pmf: JointPMF, layout: VariableLayout,
                         free: np.ndarray) -> tuple[CSR, np.ndarray, tuple, tuple]:
    """The rows ``G k <= h`` of the chosen discrimination control on the
    layout entries ``free``, their labels, and the warnings of skipped groups.

    Every row combines at most two rows of one group-rate matrix R (see
    ``_rate_matrix``): G = C R, with epsilon only in C and h.  Target mode
    bounds each group's transformed outcome rate inside ``(1 +/- eps) *
    target`` (rows +R_g and -R_g); pairwise mode bounds each pair of group
    rates against each other (rows R_d1 - (1 + eps) R_d2); conditional
    mode applies the target bound to groups (d, segment).  Zero-mass groups
    and undersized segments are skipped with a warning instead of
    inventing constraints.
    """
    schema = pmf.schema
    c_row, c_col, c_val, rhs, labels, warnings = [], [], [], [], [], []

    def row(terms, b: float, label: str) -> None:
        # one constraint sum(coef * R[r] for r, coef in terms) k <= b
        for r, coef in terms:
            c_row.append(len(rhs))
            c_col.append(r)
            c_val.append(coef)
        rhs.append(b)
        labels.append(label)

    def bound(g: int, key: tuple, target: np.ndarray, name: str) -> None:
        # (1 - eps) target_y <= rate of group g <= (1 + eps) target_y
        for y in (0, 1):
            eps = spec.eps((y,) + key)
            label = name.format(y=schema.y_label(y))
            row([(g * 2 + y, 1.0)], (1.0 + eps) * target[y], label + " upper")
            row([(g * 2 + y, -1.0)], -(1.0 - eps) * target[y], label + " lower")

    if spec.mode == MODE_CONDITIONAL:
        if not spec.condition_on:
            raise InvalidParamsError("conditional mode needs condition_on variables")
        b_of_x, b_labels = segments(schema, spec.condition_on)
        nb = len(b_labels)
        group = layout.d * nb + b_of_x[layout.x]
        mass = np.zeros(schema.nd * nb)
        np.add.at(mass, group, layout.weights)
        # outcome marginal within each segment, the default target
        seg = np.zeros((nb, 2))
        np.add.at(seg, b_of_x, pmf.p_xy())
        n = pmf.n
        for d in range(schema.nd):
            for b in range(nb):
                g = d * nb + b
                cell_name = f"d={schema.d_label(d)} b={b_labels[b]}"
                if mass[g] <= 0.0:
                    warnings.append(f"segment {cell_name} has zero mass; skipped")
                    continue
                if n is not None and mass[g] * n < spec.min_cell_count:
                    warnings.append(f"segment {cell_name} has fewer than"
                                    f" {spec.min_cell_count} samples; skipped")
                    continue
                target_b = spec.target
                if target_b is None:
                    target_b = seg[b] / seg[b].sum()
                if (target_b <= 0).any():
                    raise ZeroReferenceError(f"segment target for {cell_name} hits zero")
                bound(g, (d, b), target_b, "disc[cond] y={y} " + cell_name)
    else:
        group, mass = layout.d, pmf.p_d()
        present = []
        for d in range(schema.nd):
            if mass[d] <= 0.0:
                warnings.append(f"group {schema.d_label(d)!r} has zero mass; skipped")
            else:
                present.append(d)
    if spec.mode == MODE_TARGET:
        target = spec.resolve_target(pmf)
        for d in present:
            bound(d, (d,), target, "disc[target] y={y} d=" + schema.d_label(d))
    elif spec.mode == MODE_PAIRWISE:
        for i, d1 in enumerate(present):
            for d2 in present[i + 1 :]:
                for y in (0, 1):
                    e12 = spec.eps((y, d1, d2))
                    e21 = spec.eps((y, d2, d1))
                    r1, r2 = d1 * 2 + y, d2 * 2 + y
                    name = (f"disc[pairwise] y={schema.y_label(y)}"
                            f" d1={schema.d_label(d1)} d2={schema.d_label(d2)}")
                    row([(r1, 1.0), (r2, -(1.0 + e12))], 0.0, name + " upper(1|2)")
                    row([(r2, 1.0), (r1, -(1.0 + e21))], 0.0, name + " upper(2|1)")
                    if e12 != e21:
                        # asymmetric tolerances: the lower sides are not
                        # implied by the opposite upper sides
                        row([(r1, -1.0), (r2, 1.0 - e12)], 0.0, name + " lower(1|2)")
                        row([(r2, -1.0), (r1, 1.0 - e21)], 0.0, name + " lower(2|1)")
    R = _rate_matrix(layout, group, mass, free)
    # each entry of C R is one scaled entry of R, whose rows use disjoint
    # columns; C does not store the zero coefficient a tolerance of 1 leaves
    C = CSR.from_entries(c_row, c_col, c_val, (len(rhs), R.shape[0]))
    return C @ R, np.array(rhs, dtype=np.float64), tuple(labels), tuple(warnings)


def _block_rows(values: np.ndarray, row_ptr: np.ndarray) -> CSR:
    """One constraint row per kernel row, from one value per column: row r
    holds the values of columns row_ptr[r]:row_ptr[r + 1] (kernel row r's
    entries), zeros dropped."""
    nonzero = values != 0.0
    ends = np.concatenate(([0], np.cumsum(nonzero)))
    return CSR(ends[row_ptr], np.flatnonzero(nonzero), values[nonzero],
               (row_ptr.size - 1, values.size))


def _distortion_terms(metric: DistortionMetric, budget: DistortionBudget,
                      layout: VariableLayout):
    """The distortion D of every layout entry (D[r * row_dim + j] moves
    layout row r's input cell to image cell j), each budget pair (t, c)
    with c per layout row, and the entries the budget pins to zero.

    A threshold t with a zero budget pins the entries with D > t.  Under
    the expected mode (t None), entries at or above the forbidden level
    are pinned wherever the budget cannot reach them.  The metric is
    checked against the schema by ``distortion_matrix`` alone.
    """
    schema = layout.schema
    delta = distortion_matrix(metric, schema)
    shape = (schema.nd, schema.nx, schema.ny)
    cells = (layout.d, layout.x, layout.y)
    D = delta[layout.x * schema.ny + layout.y]  # (n_rows, row_dim)
    pairs = []
    pinned = np.zeros(D.shape, dtype=bool)
    for t, cgrid in budget.cells(shape):
        c = cgrid[cells]
        if np.isnan(c).any():
            raise MissingBudgetError("budget missing for a positive-mass cell")
        if t is None:
            pinned |= (D >= FORBIDDEN) & (c < FORBIDDEN)[:, None]
        else:
            pinned |= (D > t) & (c == 0.0)[:, None]
        pairs.append((t, c))
    return D.ravel(), pairs, pinned.ravel()


def _distortion_rows(D: np.ndarray, pairs: list, layout: VariableLayout,
                     free: np.ndarray) -> tuple[CSR, np.ndarray, tuple]:
    """Per-input-cell distortion inequalities ``G k <= h`` for the D and
    budget pairs of ``_distortion_terms``, built on the layout entries
    ``free``, with their labels.

    With D[r] the distortion row of layout row r's input cell, each
    budget pair (t, c) gives one row per input cell: t None (the expected
    mode) bounds the expected distortion D[r] . k_r, and a threshold t
    bounds the exceedance probability (D[r] > t) . k_r.  A zero budget
    keeps its row, so each pair has one row per input cell.
    """
    row_ptr = np.searchsorted(free, np.arange(layout.n_rows + 1) * layout.row_dim)
    D = D[free]  # one value per column
    names = cell_names(layout)
    blocks, labels = [], []
    for t, c in pairs:
        if t is None:
            blocks.append(_block_rows(D, row_ptr))
            labels.extend("dist[expected] " + names)
        else:
            blocks.append(_block_rows((D > t).astype(np.float64), row_ptr))
            labels.extend(f"dist[>{t}] " + names)
    return (vstack(blocks), np.concatenate([c for _, c in pairs]),
            tuple(labels))


def side_constraints(
    pmf: JointPMF,
    layout: VariableLayout,
    disc_spec: Optional[DiscriminationSpec],
    metric: Optional[DistortionMetric],
    budget: Optional[DistortionBudget],
) -> tuple[CSR, np.ndarray, tuple, tuple, np.ndarray]:
    """The side rows ``G k <= h`` of a kernel program, their labels, the
    warnings of skipped groups, and the layout entries that are its
    variables.

    The entries the distortion budget pins to zero (see
    ``_distortion_terms``) are found first and left out of the program,
    so ``free`` is the one record of them.  Every row is built on the
    free entries alone: the discrimination rows of ``disc_spec`` (see
    ``_discrimination_rows``), then one row per budget pair and input
    cell (see ``_distortion_rows``).  Omitted parts contribute no rows.
    """
    if metric is None:
        free = np.arange(layout.n_vars)
    else:
        D, pairs, pinned = _distortion_terms(metric, budget, layout)
        free = np.flatnonzero(~pinned)
    blocks = [(zeros((0, free.size)), np.zeros(0), (), ())]
    if disc_spec is not None:
        blocks.append(_discrimination_rows(disc_spec, pmf, layout, free))
    if metric is not None:
        blocks.append(_distortion_rows(D, pairs, layout, free) + ((),))
    G, h, labels, warnings = zip(*blocks)
    return (vstack(G), np.concatenate(h), sum(labels, ()),
            sum(warnings, ()), free)


def cell_names(layout: VariableLayout) -> np.ndarray:
    """The label "d=.. x=.. y=.." of every layout row's input cell."""
    schema = layout.schema
    d_labels, x_labels, y_labels = (np.array(t, dtype=object) for t in (
        schema.d_labels, schema.x_labels, schema.y_var.alphabet.categories))
    return ("d=" + d_labels[layout.d] + " x=" + x_labels[layout.x]
            + " y=" + y_labels[layout.y])
