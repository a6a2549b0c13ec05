"""Generic machinery for convex programs over products of simplices.

A :class:`SimplexImageProgram` is the shared shape of every solve in this
package (the full kernel problem and both blocks of the suppressed
formulation): variables are stacked probability rows, the objective is a
divergence between a reference distribution and an affine image of the
variables, and all side constraints are affine.

Two solve paths:

* total-variation objective: rewritten exactly as a linear program
  (auxiliary variables for the absolute values) and handed to HiGHS;
* KL objective: Kelley's cutting-plane method.  The objective is
  separable in the image q = A k, so each iteration is one LP of the same
  [k, aux] shape, with tangent cuts of -log standing in for the
  objective; the gap between the true objective at the best iterate and
  the LP's dual bound is the certificate and the termination criterion.
  The cut LPs of one solve are one persistent HiGHS model that gains each
  iteration's cut rows and restarts from the last basis.

Every LP is laid out by ``_lp`` as one HiGHS model (``_LPModel``, on
SciPy's bundled HiGHS bindings ``scipy.optimize._highspy``): the l1 LP,
phase 1 and the KL start LP run once, cold; the KL cut LPs are one model
that gains rows.  Every LP adds a tiny identity-deviation term to the
objective so that ties between algebraically equivalent optima break
deterministically toward the least-randomizing kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog  # noqa: F401  (uncalled; bench/spans.py wraps this name)
from scipy.optimize._highspy import _core as _highs

from .constants import DEFAULT_MAX_ITERS, DEFAULT_TOL, TIE_BREAK_WEIGHT
from .domain import kl_divergence
from .errors import InvalidParamsError, NumericalBreakdownError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_INFINITE = "infinite_objective"

# HiGHS options of every LP (those linprog passed: dual simplex, tight
# feasibility tolerances)
_OPTIONS = {
    "output_flag": False,
    "presolve": "on",
    "simplex_strategy": 1,  # dual
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
_STATUS = {
    _highs.HighsModelStatus.kOptimal: STATUS_OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: STATUS_INFEASIBLE,
    _highs.HighsModelStatus.kIterationLimit: STATUS_ITERATION_LIMIT,
}


@dataclass(frozen=True)
class SimplexImageProgram:
    """min  div(p_ref, A k) + tie_weight * (const - anchor . k)
    s.t.   each simplex row k[row_ptr[i]:row_ptr[i + 1]] sums to 1,
           k >= 0, G k <= h.
    """

    row_ptr: np.ndarray
    A: sp.csr_matrix
    p_ref: np.ndarray
    G: sp.csr_matrix
    h: np.ndarray
    labels: tuple[str, ...]
    anchor: np.ndarray
    tie_weight: float = TIE_BREAK_WEIGHT

    @property
    def n_rows(self) -> int:
        return int(self.row_ptr.size - 1)

    @property
    def n_vars(self) -> int:
        return int(self.row_ptr[-1])

    def row_sum_matrix(self) -> sp.csr_matrix:
        return sp.csr_matrix(
            (np.ones(self.n_vars), np.arange(self.n_vars), self.row_ptr),
            shape=(self.n_rows, self.n_vars),
        )

    def image(self, kvec: np.ndarray) -> np.ndarray:
        return np.asarray(self.A @ kvec)

    def tie_term(self, kvec: np.ndarray) -> float:
        return self.tie_weight * (self.n_rows - float(self.anchor @ kvec))

    def residual(self, kvec: np.ndarray) -> float:
        """Largest violation across side constraints, simplex rows, and
        nonnegativity."""
        viol = 0.0
        if self.h.size:
            viol = max(viol, float(np.max(self.G @ kvec - self.h)))
        sums = self.row_sum_matrix() @ kvec
        viol = max(viol, float(np.max(np.abs(sums - 1.0))))
        viol = max(viol, float(max(0.0, -kvec.min())))
        return viol

    def substitute(self, S: sp.csr_matrix, row_ptr: np.ndarray,
                   pins: sp.csr_matrix, pin_labels) -> "SimplexImageProgram":
        """Program over new variables v with k = S v (sparse substitution)
        and simplex rows ``row_ptr``, plus the rows ``pins @ v <= 0``."""
        return SimplexImageProgram(
            row_ptr=row_ptr,
            A=(self.A @ S).tocsr(),
            p_ref=self.p_ref,
            G=sp.vstack([self.G @ S, pins], format="csr"),
            h=np.concatenate([self.h, np.zeros(pins.shape[0])]),
            labels=self.labels + tuple(pin_labels),
            anchor=np.asarray(S.T @ self.anchor).ravel(),
            tie_weight=self.tie_weight,
        )


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    kvec: np.ndarray
    objective: float  # primary objective, tie-break excluded
    certificate: float  # optimality gap / phase-1 total violation
    residual: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


class _Run(NamedTuple):
    status: str  # STATUS_OPTIMAL, STATUS_INFEASIBLE or STATUS_ITERATION_LIMIT
    x: np.ndarray | None  # None when HiGHS holds no primal
    objective: float  # HiGHS's primal objective
    dual: float  # the dual objective; NaN unless optimal with duals
    iterations: int  # simplex iterations of this run


class _LPModel:
    """A HiGHS model of min c . x over x = [k, aux] s.t. ``<=`` rows, the
    simplex rows (each sums to 1) and 0 <= x <= ub, as ``_lp`` lays it out.
    ``add_rows`` appends ``<=`` rows, and every ``run`` after the first
    restarts the dual simplex from the basis of the run before.  HiGHS
    holds the rows as [``<=`` rows; simplex rows; appended rows]."""

    def __init__(self, name: str, c: np.ndarray, A_ub: sp.csr_matrix,
                 b_ub: np.ndarray, A_eq: sp.csr_matrix, ub: np.ndarray):
        A = sp.vstack([A_ub, A_eq], format="csc")
        self.name, self.ub, self.b_ub = name, ub, [b_ub]
        self.eq = slice(b_ub.size, b_ub.size + A_eq.shape[0])
        model = _highs.HighsLp()
        model.num_col_, model.num_row_ = A.shape[1], A.shape[0]
        model.col_cost_, model.col_lower_, model.col_upper_ = c, np.zeros(ub.size), ub
        ones = np.ones(A_eq.shape[0])
        model.row_lower_ = np.concatenate([np.full(b_ub.size, -np.inf), ones])
        model.row_upper_ = np.concatenate([b_ub, ones])
        matrix = model.a_matrix_
        matrix.format_ = _highs.MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = A.shape[1], A.shape[0]
        matrix.start_ = A.indptr.astype(np.int32)
        matrix.index_ = A.indices.astype(np.int32)
        matrix.value_ = A.data
        self.highs = _highs._Highs()
        for key, value in _OPTIONS.items():
            self._set(key, value)
        self._ok(self.highs.passModel(model), "passModel")

    def _ok(self, status, call: str) -> None:
        if status != _highs.HighsStatus.kOk:
            raise NumericalBreakdownError(f"{self.name} failed: HiGHS {call} returned {status.name}")

    def _set(self, key: str, value) -> None:
        self._ok(self.highs.setOptionValue(key, value), f"setOptionValue({key!r})")

    def add_rows(self, rows: sp.csr_matrix, rhs: np.ndarray) -> None:
        """Append the rows ``rows @ x <= rhs``.

        A model that gains rows is solved with max-value scaling (4): under
        HiGHS's default scaling a warm-started primal's simplex-row sums
        drift past what a kernel row may miss 1 by (1e-9), and unscaled (0)
        the cut LP optimum of an identity-optimal instance can end up to
        2e-9 above the true optimum, so LB passes it.  LPs that run once
        keep the default scaling."""
        self._set("simplex_scale_strategy", 4)
        self._ok(self.highs.addRows(
            rows.shape[0], np.full(rows.shape[0], -np.inf), rhs, rows.nnz,
            rows.indptr[:-1].astype(np.int32), rows.indices.astype(np.int32),
            rows.data,
        ), "addRows")
        self.b_ub.append(rhs)

    def run(self, *allowed: str, max_iters: int | None = None) -> _Run:
        """Solve, within ``max_iters`` simplex iterations if given.  An
        outcome other than optimal or one of the ``allowed`` statuses
        raises ``NumericalBreakdownError``."""
        if max_iters is not None:
            self._set("simplex_iteration_limit", max_iters)
        if self.highs.run() == _highs.HighsStatus.kError:
            raise NumericalBreakdownError(f"{self.name} failed: HiGHS run returned kError")
        model_status = self.highs.getModelStatus()
        status = _STATUS.get(model_status)
        if status != STATUS_OPTIMAL and status not in allowed:
            raise NumericalBreakdownError(
                f"{self.name} failed: HiGHS model status"
                f" {self.highs.modelStatusToString(model_status)}"
            )
        sol, info = self.highs.getSolution(), self.highs.getInfo()
        x = np.asarray(sol.col_value) if sol.value_valid else None
        dual = float("nan")
        if status == STATUS_OPTIMAL and sol.dual_valid:
            row_dual, col_dual = np.asarray(sol.row_dual), np.asarray(sol.col_dual)
            # a column at its upper bound has that bound's multiplier as its
            # reduced cost (lower bounds are all 0)
            dual = _dual_objective(
                np.delete(row_dual, self.eq), np.concatenate(self.b_ub),
                row_dual[self.eq], np.where(x >= self.ub, col_dual, 0.0), self.ub,
            )
        return _Run(status, x, float(info.objective_function_value), dual,
                    int(info.simplex_iteration_count))


def _lp(name: str, prog: SimplexImageProgram, c_k: np.ndarray, c_aux=(),
        g_aux=None, rows=None, rhs=None) -> _LPModel:
    """The HiGHS model, named ``name`` in errors, of an LP over the
    variables [k, aux].

    Minimizes c_k . k + c_aux . aux subject to the program's simplex rows
    and side constraints (``g_aux`` holds the auxiliary columns of the
    side-constraint rows; zero when omitted) plus ``rows @ [k, aux] <=
    rhs``.  Kernel entries lie in [0, 1]; auxiliary variables are
    nonnegative.
    """
    n_aux = len(c_aux)
    m = int(prog.h.size)
    A_ub, b_ub = [], []
    if m:
        if n_aux:
            aux = sp.csr_matrix((m, n_aux)) if g_aux is None else g_aux
            A_ub.append(sp.hstack([prog.G, aux], format="csr"))
        else:
            A_ub.append(prog.G)
        b_ub.append(prog.h)
    if rows is not None:
        A_ub.append(rows)
        b_ub.append(rhs)
    A_eq = prog.row_sum_matrix()
    if n_aux:
        A_eq = sp.hstack([A_eq, sp.csr_matrix((prog.n_rows, n_aux))], format="csr")
    return _LPModel(
        name,
        np.concatenate([c_k, c_aux]),
        sp.vstack(A_ub, format="csr") if A_ub else sp.csr_matrix((0, A_eq.shape[1])),
        np.concatenate(b_ub) if b_ub else np.zeros(0),
        A_eq,
        np.concatenate([np.ones(prog.n_vars), np.full(n_aux, np.inf)]),
    )


def phase1_violation(prog: SimplexImageProgram) -> tuple[float, np.ndarray, dict]:
    """Minimum total side-constraint violation (simplex rows stay hard).

    Returns the optimal total violation, the violation-minimizing kernel,
    and diagnostics naming the worst constraint there and summing the
    violations by label family (the label's first word, such as
    ``disc[pairwise]``, ``dist[expected]`` or ``pin``), whose units differ.
    """
    n, m = prog.n_vars, int(prog.h.size)
    x = _lp("phase-1 LP", prog, np.zeros(n), np.ones(m), -sp.identity(m, format="csr")).run().x
    kvec = x[:n]
    if m == 0:
        return 0.0, kvec, {}
    svec = x[n:]
    worst = int(np.argmax(svec))
    labels = prog.labels or tuple(map(str, range(m)))
    families, index = np.unique([label.split(" ", 1)[0] for label in labels],
                                return_inverse=True)
    diag = {
        "worst_constraint": labels[worst],
        "worst_violation": float(svec[worst]),
        "violation_by_family": dict(zip(families.tolist(),
                                        np.bincount(index, weights=svec).tolist())),
    }
    return float(svec.sum()), kvec, diag


def _dual_objective(ineq: np.ndarray, b_ub: np.ndarray, eq: np.ndarray,
                    upper: np.ndarray, ub: np.ndarray) -> float:
    """An LP's dual objective from the multipliers of its ``<=`` rows, its
    simplex rows (which all equal 1) and its columns' upper bounds (lower
    bounds are all 0)."""
    finite = np.isfinite(ub)
    return float(ineq @ b_ub) + float(eq.sum()) + float(upper[finite] @ ub[finite])


def solve_tv(prog: SimplexImageProgram, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS) -> SolveOutcome:
    """Exact LP solve of the total-variation (l1) objective."""
    if tol <= 0:
        raise InvalidParamsError("tol must be positive")
    n = prog.n_vars
    n_img = int(prog.p_ref.size)
    # variables [k, u]; u_j >= |p_j - (A k)_j|
    A = prog.A
    I = sp.identity(n_img, format="csr")
    run = _lp(
        "l1 LP", prog, -prog.tie_weight * prog.anchor, np.ones(n_img),
        rows=sp.vstack([sp.hstack([-A, -I]), sp.hstack([A, -I])], format="csr"),
        rhs=np.concatenate([-prog.p_ref, prog.p_ref]),
    ).run(STATUS_INFEASIBLE, STATUS_ITERATION_LIMIT, max_iters=max_iters)
    if run.status == STATUS_INFEASIBLE:
        violation, kvec, diag = phase1_violation(prog)
        return SolveOutcome(
            STATUS_INFEASIBLE, kvec, float("nan"), violation,
            prog.residual(kvec), run.iterations, diag,
        )
    if run.status == STATUS_ITERATION_LIMIT:
        kvec = run.x[:n] if run.x is not None else np.zeros(n)
        return SolveOutcome(
            STATUS_ITERATION_LIMIT, kvec, float("nan"), float("inf"),
            prog.residual(kvec) if run.x is not None else float("inf"),
            run.iterations, {"message": f"HiGHS stopped after {max_iters} simplex iterations"},
        )
    kvec = run.x[:n]
    objective = float(np.abs(prog.p_ref - prog.image(kvec)).sum())
    gap = abs(run.objective - run.dual)  # NaN when HiGHS reported no duals
    return SolveOutcome(
        STATUS_OPTIMAL, kvec, objective, gap, prog.residual(kvec), run.iterations,
        {"certificate_note": "HiGHS reported no dual values"} if np.isnan(gap) else {},
    )


def solve_kl(prog: SimplexImageProgram, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS) -> SolveOutcome:
    """Kelley's cutting-plane method on the KL objective.

    On the supported cells the objective is sum_j p_j log p_j - sum_j p_j
    log q_j with q = A k, plus the tie-break term.  Each iteration solves
    an LP over [k, q, t] whose rows replace the epigraph of every -log q_j
    by its tangents at the images seen so far, then adds the tangents at
    the new image.  The cut LPs are one HiGHS model that gains each
    iteration's tangent rows, so each solve restarts from the basis of
    the one before.  The LP's dual objective bounds the optimum from
    below (LB) and the objective at the best iterate from above (UB); the
    loop stops once UB - LB <= ``tol``, and UB - LB is the certificate.

    When every feasible kernel leaves a supported cell uncovered, the
    objective is infinite on the whole feasible set: the status is
    ``STATUS_INFINITE`` and ``diagnostics["uncovered_cell"]`` is the image
    index of the cell the start LP covers least.
    """
    if tol <= 0:
        raise InvalidParamsError("tol must be positive")
    n = prog.n_vars
    sup = np.nonzero(prog.p_ref > 0)[0]
    p = prog.p_ref[sup]
    A_sup = prog.A[sup]

    # start from a feasible point that covers the supported image cells:
    # maximize t subject to (A k)_j >= t * p_j on the support
    start = _lp(
        "KL start LP", prog, np.zeros(n), [-1.0],
        rows=sp.hstack([-A_sup, sp.csr_matrix(p.reshape(-1, 1))], format="csr"),
        rhs=np.zeros(sup.size),
    ).run(STATUS_INFEASIBLE)
    simplex_iterations = [start.iterations]
    if start.status == STATUS_INFEASIBLE:
        violation, kvec, diag = phase1_violation(prog)
        diag["simplex_iterations"] = simplex_iterations
        return SolveOutcome(
            STATUS_INFEASIBLE, kvec, float("nan"), violation,
            prog.residual(kvec), 0, diag,
        )
    t_star = -start.objective
    best = start.x[:n]
    if t_star <= 1e-14:
        return SolveOutcome(
            STATUS_INFINITE, best, float("inf"), float("nan"),
            prog.residual(best), 0,
            {"coverage": float(t_star),
             "uncovered_cell": int(sup[np.argmin(A_sup @ best / p)]),
             "simplex_iterations": simplex_iterations},
        )

    def upper(kvec):
        return kl_divergence(prog.p_ref, prog.image(kvec)) + prog.tie_term(kvec)

    best_ub = upper(best)
    lower = -np.inf
    # LB = this + the cut LP's optimum (its objective drops both terms)
    offset = float(p @ np.log(p)) + prog.tie_weight * prog.n_rows
    q_hat = A_sup @ best  # positive: the start covers every supported cell
    low = q_hat
    # variables [k, q, t]: q_j <= (A k)_j and t_j above the tangents of
    # -log at q_j; both bind at an optimum (-log decreases), so the LP
    # bound is that of tangents in (A k)_j, while each cut row has two
    # nonzeros (at q_j and t_j) instead of a row of A
    n_sup = sup.size
    eye = sp.identity(n_sup, format="csr")
    model = _lp(
        "cut LP", prog, -prog.tie_weight * prog.anchor, np.concatenate([np.zeros(n_sup), p]),
        rows=sp.hstack([-A_sup, eye, sp.csr_matrix((n_sup, n_sup))], format="csr"),
        rhs=np.zeros(n_sup),
    )
    cut_cols = np.column_stack([n + np.arange(n_sup), n + n_sup + np.arange(n_sup)])
    iters = 0
    while best_ub - lower > tol and iters < max_iters:
        # tangent at q_hat: t_j >= -log q_hat_j + 1 - q_j / q_hat_j; _lp
        # keeps q, t >= 0, which cuts nothing off since 0 <= (A k)_j <= 1
        model.add_rows(
            sp.csr_matrix(
                (np.column_stack([-1.0 / q_hat, -np.ones(n_sup)]).ravel(),
                 cut_cols.ravel(), np.arange(0, 2 * n_sup + 1, 2)),
                shape=(n_sup, n + 2 * n_sup),
            ),
            np.log(q_hat) - 1.0,
        )
        run = model.run()
        iters += 1
        simplex_iterations.append(run.iterations)
        lower = max(lower, offset + run.dual)
        kvec = run.x[:n]
        value = upper(kvec)
        if value < best_ub:
            best, best_ub = kvec, value
        # an entry below half the lowest earlier cut point is cut there
        # instead (any tangent is valid): no cut is taken at 0, where
        # log is -inf, and none is more than 2x steeper than the last
        q_hat = np.maximum(A_sup @ kvec, 0.5 * low)
        low = np.minimum(low, q_hat)

    gap = best_ub - lower
    return SolveOutcome(
        STATUS_OPTIMAL if gap <= tol else STATUS_ITERATION_LIMIT,
        best, kl_divergence(prog.p_ref, prog.image(best)), gap,
        prog.residual(best), iters,
        {"coverage": float(t_star), "lower_bound": lower,
         "simplex_iterations": simplex_iterations},
    )
