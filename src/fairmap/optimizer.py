"""Assembly and solution of the kernel-learning optimization.

The optimization variable is the randomized mapping from each
positive-mass input cell (d, x, y) to a transformed cell (x_hat, y_hat).
The objective is the divergence between the original (x, y) distribution
and its image under the mapping; discrimination and distortion enter as
linear constraints.  Zero-mass input cells are not variables; they get
deterministic identity rows in the returned kernel so that unseen inputs
pass through undistorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Optional, Sequence

import numpy as np

from ._csr import CSR
from .constants import DEFAULT_MAX_ITERS, DEFAULT_TOL, ROW_ATOL
from .constraints import DiscriminationSpec, VariableLayout, cell_names, side_constraints
from .distortion import DistortionBudget, DistortionMetric
from .domain import (JointPMF, Schema, conditional, kl_divergence, l1_distance,
                     probabilities)
from .errors import InvalidParamsError
from .solver import (
    STATUS_INFEASIBLE,
    STATUS_INFINITE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    SimplexImageProgram,
    SolveOutcome,
    phase1_violation,
    solve_kl,
    solve_tv,
)

OBJECTIVE_KL = "kl"
OBJECTIVE_L1 = "l1"

SOF_FIX_CONDITIONAL = "fix_conditional"
SOF_ALTERNATING = "alternating"


@dataclass(frozen=True)
class TransformKernel:
    """The learned randomized mapping, one probability row per input cell.

    ``probs[d, x, y]`` is the distribution of (x_hat, y_hat) flattened as
    x_hat * ny + y_hat.  Rows are row-stochastic within 1e-9.
    """

    schema: Schema
    probs: np.ndarray
    provenance: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        shape = (self.schema.nd, self.schema.nx, self.schema.ny,
                 self.schema.nx * self.schema.ny)
        if probs.min(initial=0.0) >= -1e-15:  # a solver's rounding residue reads as 0
            probs = np.maximum(probs, 0.0)
        object.__setattr__(
            self, "probs", probabilities(probs, shape, ROW_ATOL, "kernel", axis=-1))
        object.__setattr__(self, "provenance", dict(self.provenance))


def _identity_probs(schema: Schema) -> np.ndarray:
    nd, nx, ny = schema.nd, schema.nx, schema.ny
    eye = np.eye(nx * ny).reshape(nx, ny, nx * ny)
    return np.broadcast_to(eye, (nd, nx, ny, nx * ny)).copy()


def identity_kernel(schema: Schema) -> TransformKernel:
    return TransformKernel(schema, _identity_probs(schema))


@dataclass(frozen=True)
class Problem:
    """A fully assembled instance: data, specs, and the compiled program."""

    pmf: JointPMF
    objective: str
    disc_spec: Optional[DiscriminationSpec]
    metric: Optional[DistortionMetric]
    budget: Optional[DistortionBudget]
    layout: VariableLayout
    free: np.ndarray  # the layout entries that are program variables
    program: SimplexImageProgram
    warnings: tuple[str, ...]

    @property
    def n_vars(self) -> int:
        return self.program.n_vars

    def with_epsilon(self, epsilon) -> "Problem":
        if self.disc_spec is None:
            raise InvalidParamsError("problem has no discrimination spec to vary")
        return assemble(
            self.pmf,
            self.disc_spec.with_epsilon(epsilon),
            self.metric,
            self.budget,
            self.objective,
        )

    # -- a kernel as program variables, and the objective it attains ---------
    def kernel_vec(self, kernel: TransformKernel) -> np.ndarray:
        layout = self.layout
        return kernel.probs[layout.d, layout.x, layout.y].ravel()[self.free]

    def objective_value(self, kernel) -> float:
        kvec = kernel if isinstance(kernel, np.ndarray) else self.kernel_vec(kernel)
        q = self.program.image(kvec)
        if self.objective == OBJECTIVE_KL:
            return kl_divergence(self.program.p_ref, q)
        return l1_distance(self.program.p_ref, q)


@dataclass(frozen=True)
class Solution:
    """Solver outcome plus the deployable kernel.

    ``certificate`` is the optimality gap (optimal), the minimum total
    constraint violation (infeasible), or the last gap seen (iteration
    limit).  For both objectives the gap is UB - L: the objective plus
    tie-break term at the returned kernel, minus ``solver.lagrangian_bound``
    at an optimal LP's row duals (for KL the best over the cut LPs,
    ``diagnostics["lower_bound"]``).  It is not clamped, so rounding can
    make it about -1e-16.  ``objective`` is NaN for infeasible
    problems and +inf when the KL objective is infinite on the whole
    feasible set (status ``infinite_objective``); ``diagnostics[
    "uncovered_cell"]`` then names the (x_hat, y_hat) cell that no
    feasible kernel gives mass to while the data does.
    """

    status: str
    kernel: TransformKernel
    objective: float
    residual: float
    certificate: float
    iterations: int
    diagnostics: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "diagnostics", dict(self.diagnostics))


def _image_map(layout: VariableLayout, free: np.ndarray) -> CSR:
    """A with (A k)_j = sum_r p(r) k_r(j): one nonzero per variable."""
    r, j = np.divmod(free, layout.row_dim)
    return CSR.from_entries(j, np.arange(free.size), layout.weights[r],
                            (layout.row_dim, free.size))


def _identity_anchor(layout: VariableLayout, free: np.ndarray) -> np.ndarray:
    """The identity kernel as a variable vector."""
    r, j = np.divmod(free, layout.row_dim)
    return (j == layout.x[r] * layout.schema.ny + layout.y[r]).astype(np.float64)


def assemble(
    pmf: JointPMF,
    disc_spec: Optional[DiscriminationSpec],
    metric: Optional[DistortionMetric] = None,
    budget: Optional[DistortionBudget] = None,
    objective: str = OBJECTIVE_KL,
) -> Problem:
    """Compile data and specs into a solvable program.

    ``disc_spec`` or the distortion pair may be omitted (useful for
    studying one force in isolation); omitted parts contribute no
    constraints.  Transitions the distortion budget pins to zero are not
    variables, and every row is built on the free entries alone (see
    ``constraints.side_constraints``).
    """
    if objective not in (OBJECTIVE_KL, OBJECTIVE_L1):
        raise InvalidParamsError(f"unknown objective {objective!r}")
    if (metric is None) != (budget is None):
        raise InvalidParamsError("metric and budget must be given together")
    layout = VariableLayout.from_pmf(pmf)
    G, h, labels, warnings, free = side_constraints(pmf, layout, disc_spec, metric, budget)
    program = SimplexImageProgram(
        row_ptr=np.searchsorted(free, np.arange(layout.n_rows + 1) * layout.row_dim),
        A=_image_map(layout, free),
        p_ref=pmf.p_xy().ravel(),
        G=G,
        h=h,
        labels=labels,
        anchor=_identity_anchor(layout, free),
    )
    return Problem(
        pmf=pmf,
        objective=objective,
        disc_spec=disc_spec,
        metric=metric,
        budget=budget,
        layout=layout,
        free=free,
        program=program,
        warnings=warnings,
    )


def _kernel_from_entries(layout: VariableLayout, entries: np.ndarray) -> TransformKernel:
    """The kernel whose layout rows are ``entries`` (every layout entry)."""
    probs = _identity_probs(layout.schema)  # fallback rows for zero-mass cells
    probs[layout.d, layout.x, layout.y] = np.maximum(
        entries.reshape(layout.n_rows, layout.row_dim), 0.0
    )
    return TransformKernel(layout.schema, probs)


def _kernel_from_vec(problem: Problem, kvec: np.ndarray) -> TransformKernel:
    entries = np.zeros(problem.layout.n_vars)
    entries[problem.free] = kvec
    return _kernel_from_entries(problem.layout, entries)


def _path(objective: str):
    """The solve path of an objective (looked up at call time)."""
    return solve_kl if objective == OBJECTIVE_KL else solve_tv


def _named(problem: Problem, diagnostics: Mapping[str, object]) -> dict:
    """Solver diagnostics with the uncovered image cell, if any, named."""
    diag = dict(diagnostics)
    if "uncovered_cell" in diag:
        schema = problem.pmf.schema
        x, y = divmod(int(diag["uncovered_cell"]), schema.ny)
        diag["uncovered_cell"] = f"x={schema.x_label(x)} y={schema.y_label(y)}"
    return diag


def solve(problem: Problem, tol: float = DEFAULT_TOL,
          max_iters: int = DEFAULT_MAX_ITERS, bases: dict | None = None) -> Solution:
    """Solve the assembled program to a certified tolerance.

    The total-variation objective goes through an exact LP; the KL
    objective through a loop of LPs with tangent cuts, certified by the
    gap between the objective at the best iterate and the LP dual bound.
    Infeasible problems come back with a phase-1 certificate (minimum
    total violation) and a pointer at the most violated constraint; a KL
    objective that is infinite on the whole feasible set comes back as
    status ``infinite_objective`` with the cell that causes it named.

    ``bases``, a dict, warm-starts the LPs from the optimal bases an
    earlier solve of a program of the same shape left in it (and takes
    this solve's).  A handed basis wins; every LP without one starts from
    the identity kernel's basis.  Either bypasses HiGHS's presolve.
    """
    out = _path(problem.objective)(problem.program, tol=tol, max_iters=max_iters,
                                   bases=bases)
    return Solution(
        status=out.status,
        kernel=_kernel_from_vec(problem, out.kvec),
        objective=out.objective,
        residual=out.residual,
        certificate=out.certificate,
        iterations=out.iterations,
        diagnostics=_named(problem, out.diagnostics),
    )


@dataclass(frozen=True)
class SweepEntry:
    epsilon: float
    status: str
    objective: float


@dataclass(frozen=True)
class SweepResult:
    """Objective as a function of the discrimination budget."""

    entries: tuple[SweepEntry, ...]
    tol: float

    @property
    def monotone_nonincreasing(self) -> bool:
        prev = None
        for e in self.entries:
            if e.status != STATUS_OPTIMAL:
                continue
            if prev is not None and e.objective > prev + self.tol:
                return False
            prev = e.objective
        return True

    @property
    def infeasible_boundary(self) -> Optional[float]:
        """Largest epsilon that still came back infeasible."""
        infeas = [e.epsilon for e in self.entries if e.status == STATUS_INFEASIBLE]
        return max(infeas) if infeas else None

    @property
    def zero_boundary(self) -> Optional[float]:
        """Smallest epsilon whose objective is indistinguishable from 0."""
        zeros = [
            e.epsilon
            for e in self.entries
            if e.status == STATUS_OPTIMAL and e.objective <= self.tol
        ]
        return min(zeros) if zeros else None


def sweep_epsilon(problem: Problem, eps_grid: Sequence[float],
                  tol: float = DEFAULT_TOL,
                  max_iters: int = DEFAULT_MAX_ITERS) -> SweepResult:
    """Solves across an ascending epsilon grid; the entries follow the
    grid.  Every epsilon is checked before the first LP runs.  The points
    are solved from the largest epsilon down, each one's LPs started from
    the optimal bases the looser points left (the program's shape does
    not depend on epsilon), so the infeasible points come last.  The
    loosest point's LPs, and the first phase-1 LP, start from the
    identity kernel's basis.  Each entry is certified to ``tol`` as a
    ``solve`` at its epsilon is, so its objective matches that solve's
    within the tolerance, not bit for bit."""
    eps_grid = [float(e) for e in eps_grid]
    if eps_grid != sorted(eps_grid):
        raise InvalidParamsError("epsilon grid must be ascending")
    if problem.disc_spec is None:
        raise InvalidParamsError("problem has no discrimination spec to vary")
    for eps in eps_grid:
        problem.disc_spec.with_epsilon(eps)  # refuses a negative, NaN or infinite epsilon
    entries, bases = [], {}
    for eps in reversed(eps_grid):
        sol = solve(problem.with_epsilon(eps), tol=tol, max_iters=max_iters, bases=bases)
        entries.append(SweepEntry(eps, sol.status, sol.objective))
    return SweepResult(tuple(reversed(entries)), tol)


# ---------------------------------------------------------------------------
# suppressed-variable solving
# ---------------------------------------------------------------------------


def _w_extended(pmf: JointPMF) -> np.ndarray:
    """p(y | x) rows, with the overall outcome marginal standing in for
    feature values never seen in the data."""
    w, present = conditional(pmf.p_xy())
    w[~present] = pmf.p_y()
    return w


def _entry_index(layout: VariableLayout):
    """Row r, transformed feature xh and outcome yh of every layout entry."""
    r, j = np.divmod(np.arange(layout.n_vars), layout.row_dim)
    return (r,) + np.divmod(j, layout.schema.ny)


def _substitution_for_w(layout: VariableLayout, w: np.ndarray) -> CSR:
    """S with (S m)[(r, xh, yh)] = w[xh, yh] * m[(r, xh)]."""
    nx = layout.schema.nx
    r, xh, yh = _entry_index(layout)
    return CSR.from_entries(np.arange(layout.n_vars), r * nx + xh, w[xh, yh],
                            (layout.n_vars, layout.n_rows * nx))


def _substitution_for_m(layout: VariableLayout, m: np.ndarray) -> CSR:
    """S with (S w)[(r, xh, yh)] = m[r, xh] * w[(xh, yh)]."""
    r, xh, yh = _entry_index(layout)
    return CSR.from_entries(np.arange(layout.n_vars), xh * layout.schema.ny + yh, m[r, xh],
                            (layout.n_vars, layout.row_dim))


def _f_divergence_lower_bound(problem: Problem, kvec: np.ndarray) -> float:
    """D_f(p_X || p_Xhat): the data-processing floor for the objective."""
    schema = problem.pmf.schema
    q_x = problem.program.image(kvec).reshape(schema.nx, schema.ny).sum(axis=1)
    p_x = problem.pmf.p_x()
    if problem.objective == OBJECTIVE_KL:
        return kl_divergence(p_x, q_x)
    return l1_distance(p_x, q_x)


def sof_solve(problem: Problem, strategy: str = SOF_FIX_CONDITIONAL,
              tol: float = DEFAULT_TOL, max_outer: int = 100,
              max_iters: int = DEFAULT_MAX_ITERS) -> Solution:
    """Solve under the Markov factorization that survives suppressing the
    protected variables at classification time.

    The returned kernel is k(xh, yh | d, x, y) =
    w(yh | xh) * m(xh | d, x, y) exactly by construction.

    strategy "fix_conditional": pin w to the original outcome-given-
    features conditional (objective-optimal but possibly infeasible) and
    solve the remaining convex program in m.
    strategy "alternating": alternate exact convex solves in each factor;
    the objective sequence is non-increasing but may stop at a local
    minimum.
    """
    if strategy not in (SOF_FIX_CONDITIONAL, SOF_ALTERNATING):
        raise InvalidParamsError(f"unknown SOF strategy {strategy!r}")
    layout = problem.layout
    schema = problem.pmf.schema
    nx = schema.nx
    program, free = problem.program, problem.free
    w = _w_extended(problem.pmf)
    solve_block = partial(_path(problem.objective), tol=tol, max_iters=max_iters)
    # a factor product reaches every layout entry, pinned ones included;
    # one row per kernel row sums its pinned entries, and since S >= 0,
    # holding that sum at 0 holds each of them at 0
    pinned = np.setdiff1d(np.arange(layout.n_vars), free)
    pins = CSR.from_entries(pinned // layout.row_dim, pinned, np.ones(pinned.size),
                            (layout.n_rows, layout.n_vars))
    hit = np.diff(pins.indptr) > 0
    pins, pin_labels = pins.take_rows(hit), "pin " + cell_names(layout)[hit]

    def restricted(S: CSR, row_len: int) -> SimplexImageProgram:
        row_ptr = np.arange(S.shape[1] // row_len + 1) * row_len
        return program.substitute(S.take_rows(free), row_ptr, pins @ S, pin_labels)

    def m_program(w_cur: np.ndarray) -> SimplexImageProgram:
        return restricted(_substitution_for_w(layout, w_cur), nx)

    def w_program(m_cur: np.ndarray) -> SimplexImageProgram:
        return restricted(_substitution_for_m(layout, m_cur), schema.ny)

    def product(m_cur, w_cur) -> np.ndarray:
        return _substitution_for_w(layout, w_cur) @ m_cur.ravel()

    def finish(out: SolveOutcome, m_cur, w_cur, extra: dict) -> Solution:
        entries = product(m_cur, w_cur)
        kvec = entries[free]
        diag = _named(problem, out.diagnostics)
        diag.update(extra)
        diag["sof_y_given_xhat"] = w_cur
        diag["sof_xhat_given_dxy"] = m_cur
        diag["f_divergence_lower_bound"] = _f_divergence_lower_bound(problem, kvec)
        return Solution(
            status=out.status,
            kernel=_kernel_from_entries(layout, entries),
            objective=out.objective
            if out.status in (STATUS_INFEASIBLE, STATUS_INFINITE)
            else problem.objective_value(kvec),
            residual=program.residual(kvec),
            certificate=out.certificate,
            iterations=out.iterations,
            diagnostics=diag,
        )

    if strategy == SOF_FIX_CONDITIONAL:
        out = solve_block(m_program(w))
        m = out.kvec.reshape(layout.n_rows, nx)
        return finish(out, m, w, {"strategy": strategy})

    # alternating minimization; find a jointly feasible start first
    m_out = solve_block(m_program(w))
    if m_out.status == STATUS_INFEASIBLE:
        m = m_out.kvec.reshape(layout.n_rows, nx)
        best = m_out.certificate
        for _ in range(max_outer):
            vw, wvec, diag_w = phase1_violation(w_program(m))
            w = wvec.reshape(nx, schema.ny)
            if vw <= tol:
                break
            vm, mvec, diag_m = phase1_violation(m_program(w))
            m = mvec.reshape(layout.n_rows, nx)
            if vm <= tol:
                break
            if min(vw, vm) >= best - 1e-12:
                out = SolveOutcome(
                    STATUS_INFEASIBLE, mvec, float("nan"), min(vw, vm, best),
                    0.0, 0, diag_m,
                )
                return finish(out, m, w, {"strategy": strategy})
            best = min(vw, vm, best)
        m_out = solve_block(m_program(w))
        if m_out.status == STATUS_INFEASIBLE:
            m = m_out.kvec.reshape(layout.n_rows, nx)
            return finish(m_out, m, w, {"strategy": strategy})
    m = m_out.kvec.reshape(layout.n_rows, nx)
    if m_out.status == STATUS_INFINITE:
        return finish(m_out, m, w, {"strategy": strategy})

    def product_objective(m_cur, w_cur):
        return problem.objective_value(product(m_cur, w_cur)[free])

    trace = [product_objective(m, w)]
    out = m_out
    iterations = 1
    converged = False
    for _ in range(max_outer):
        before = trace[-1]
        # a block update is only taken when it does not increase the
        # recorded objective, so the trace is non-increasing exactly
        w_out = solve_block(w_program(m))
        cand_w = w_out.kvec.reshape(nx, schema.ny)
        val = product_objective(m, cand_w)
        if val <= trace[-1]:
            w = cand_w
            trace.append(val)
        m_out = solve_block(m_program(w))
        cand_m = m_out.kvec.reshape(layout.n_rows, nx)
        val = product_objective(cand_m, w)
        if val <= trace[-1]:
            m = cand_m
            out = m_out
            trace.append(val)
        iterations += 1
        if before - trace[-1] < tol:
            converged = True
            break
    if not converged:
        out = SolveOutcome(
            STATUS_ITERATION_LIMIT, out.kvec, out.objective, out.certificate,
            out.residual, iterations, dict(out.diagnostics),
        )
    return finish(
        out, m, w, {"strategy": strategy, "objective_trace": tuple(trace),
                    "outer_iterations": iterations},
    )

