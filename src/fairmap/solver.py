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

Every HiGHS call solves an LP laid out by ``_lp``: once, cold, through
``linprog`` (the l1 LP, phase 1 and the KL start LP), or in the
persistent model of the KL cut LPs.  Both paths add a tiny
identity-deviation term to the objective so that ties between
algebraically equivalent optima break deterministically toward the
least-randomizing kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as _highs

from .constants import DEFAULT_MAX_ITERS, DEFAULT_TOL, TIE_BREAK_WEIGHT
from .domain import kl_divergence
from .errors import InvalidParamsError, NumericalBreakdownError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_INFINITE = "infinite_objective"

_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}
# the options linprog passes for _LP_OPTIONS, with max-value scaling (4)
# in place of HiGHS's default: under the default a warm-started primal's
# simplex-row sums drift past what a kernel row may miss 1 by (1e-9),
# and unscaled (0) the cut LP optimum of an identity-optimal instance
# can end up to 2e-9 above the true optimum, so LB passes it
_MODEL_OPTIONS = {
    "output_flag": False,
    "solver": "simplex",
    "simplex_strategy": 1,  # dual
    "presolve": "on",
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
    "simplex_scale_strategy": 4,
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


@dataclass(frozen=True)
class _LP:
    """min c . x over x = [k, aux] s.t. A_ub x <= b_ub, the simplex rows
    A_eq x = 1 and 0 <= x <= ub, as ``_lp`` lays it out."""

    c: np.ndarray
    A_ub: sp.csr_matrix | None
    b_ub: np.ndarray | None
    A_eq: sp.csr_matrix
    ub: np.ndarray

    def solve(self, maxiter=None):
        """One cold solve through ``linprog``; returns its result."""
        return linprog(
            self.c,
            A_ub=self.A_ub,
            b_ub=self.b_ub,
            A_eq=self.A_eq,
            b_eq=np.ones(self.A_eq.shape[0]),
            bounds=np.column_stack([np.zeros(self.ub.size), self.ub]),
            method="highs",
            options=dict(_LP_OPTIONS, maxiter=maxiter),
        )


def _lp(prog: SimplexImageProgram, c_k: np.ndarray, c_aux=(), g_aux=None,
        rows=None, rhs=None) -> _LP:
    """The LP over the variables [k, aux] that every HiGHS call solves.

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
    return _LP(
        c=np.concatenate([c_k, c_aux]),
        A_ub=sp.vstack(A_ub, format="csr") if A_ub else None,
        b_ub=np.concatenate(b_ub) if b_ub else None,
        A_eq=A_eq,
        ub=np.concatenate([np.ones(prog.n_vars), np.full(n_aux, np.inf)]),
    )


def _highs_ok(status, call: str) -> None:
    if status != _highs.HighsStatus.kOk:
        raise NumericalBreakdownError(f"cut LP failed: HiGHS {call} returned {status.name}")


class _CutModel:
    """A persistent HiGHS model of an ``_LP`` with ``<=`` rows that grows
    by appended ``<=`` rows; every ``run`` after the first restarts the
    dual simplex from the basis of the run before.  HiGHS holds the rows
    as [A_eq; A_ub; appended]: the simplex rows, then the ``<=`` rows in
    order."""

    def __init__(self, lp: _LP):
        A = sp.vstack([lp.A_eq, lp.A_ub], format="csc")
        self.n_eq = lp.A_eq.shape[0]
        self.b_ub = [lp.b_ub]
        self.ub = lp.ub
        model = _highs.HighsLp()
        model.num_col_, model.num_row_ = A.shape[1], A.shape[0]
        model.col_cost_ = lp.c
        model.col_lower_ = np.zeros(lp.ub.size)
        model.col_upper_ = lp.ub
        model.row_lower_ = np.concatenate([np.ones(self.n_eq), np.full(lp.b_ub.size, -np.inf)])
        model.row_upper_ = np.concatenate([np.ones(self.n_eq), lp.b_ub])
        matrix = model.a_matrix_
        matrix.format_ = _highs.MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = A.shape[1], A.shape[0]
        matrix.start_ = A.indptr.astype(np.int32)
        matrix.index_ = A.indices.astype(np.int32)
        matrix.value_ = A.data
        self.highs = _highs._Highs()
        for key, value in _MODEL_OPTIONS.items():
            _highs_ok(self.highs.setOptionValue(key, value), f"setOptionValue({key!r})")
        _highs_ok(self.highs.passModel(model), "passModel")

    def add_rows(self, rows: sp.csr_matrix, rhs: np.ndarray) -> None:
        """Append the rows ``rows @ x <= rhs``."""
        _highs_ok(self.highs.addRows(
            rows.shape[0], np.full(rows.shape[0], -np.inf), rhs, rows.nnz,
            rows.indptr[:-1].astype(np.int32), rows.indices.astype(np.int32),
            rows.data,
        ), "addRows")
        self.b_ub.append(rhs)

    def run(self) -> tuple[np.ndarray, float, int]:
        """Solve; returns x, the LP's dual objective and the simplex
        iterations of this run."""
        _highs_ok(self.highs.run(), "run")
        model_status = self.highs.getModelStatus()
        if model_status != _highs.HighsModelStatus.kOptimal:
            raise NumericalBreakdownError(
                "cut LP failed: HiGHS model status"
                f" {self.highs.modelStatusToString(model_status)}"
            )
        sol = self.highs.getSolution()
        row_dual = np.asarray(sol.row_dual)
        # a negative reduced cost is the multiplier of the column's upper
        # bound, a positive one that of its lower bound (which is 0)
        dual = _dual_objective(
            row_dual[self.n_eq:], np.concatenate(self.b_ub), row_dual[:self.n_eq],
            np.minimum(sol.col_dual, 0.0), self.ub,
        )
        iterations = int(self.highs.getInfo().simplex_iteration_count)
        return np.asarray(sol.col_value), dual, iterations


def phase1_violation(prog: SimplexImageProgram) -> tuple[float, np.ndarray, dict]:
    """Minimum total side-constraint violation (simplex rows stay hard).

    Returns the optimal total violation, the violation-minimizing kernel,
    and diagnostics naming the worst constraint there.
    """
    n, m = prog.n_vars, int(prog.h.size)
    res = _lp(prog, np.zeros(n), np.ones(m), -sp.identity(m, format="csr")).solve()
    if res.status != 0:
        raise NumericalBreakdownError(f"phase-1 failed: {res.message}")
    kvec = res.x[:n]
    if m == 0:
        return 0.0, kvec, {}
    svec = res.x[n:]
    worst = int(np.argmax(svec))
    diag = {
        "worst_constraint": prog.labels[worst] if prog.labels else str(worst),
        "worst_violation": float(svec[worst]),
    }
    return float(svec.sum()), kvec, diag


def _dual_objective(ineq: np.ndarray, b_ub: np.ndarray, eq: np.ndarray,
                    upper: np.ndarray, ub: np.ndarray) -> float:
    """An LP's dual objective from the multipliers of its ``<=`` rows, its
    simplex rows (which all equal 1) and its columns' upper bounds (lower
    bounds are all 0)."""
    finite = np.isfinite(ub)
    return float(ineq @ b_ub) + float(eq.sum()) + float(upper[finite] @ ub[finite])


def _lp_duality_gap(res, lp: _LP) -> tuple[float, str]:
    """|primal - dual| of a ``linprog`` result, or NaN and the reason."""
    if res.eqlin.marginals is None:
        return float("nan"), "HiGHS reported no dual values"
    dual = _dual_objective(res.ineqlin.marginals, lp.b_ub, res.eqlin.marginals,
                           res.upper.marginals, lp.ub)
    gap = abs(float(res.fun) - dual)
    if not np.isfinite(gap):
        return float("nan"), "primal-dual gap is not finite"
    return gap, ""


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
    lp = _lp(
        prog,
        -prog.tie_weight * prog.anchor,
        np.ones(n_img),
        rows=sp.vstack([sp.hstack([-A, -I]), sp.hstack([A, -I])], format="csr"),
        rhs=np.concatenate([-prog.p_ref, prog.p_ref]),
    )
    res = lp.solve(maxiter=max_iters)
    if res.status == 2:
        violation, kvec, diag = phase1_violation(prog)
        return SolveOutcome(
            STATUS_INFEASIBLE, kvec, float("nan"), violation,
            prog.residual(kvec), int(res.nit), diag,
        )
    if res.status == 1:
        kvec = res.x[:n] if res.x is not None else np.zeros(n)
        return SolveOutcome(
            STATUS_ITERATION_LIMIT, kvec, float("nan"), float("inf"),
            prog.residual(kvec) if res.x is not None else float("inf"),
            int(res.nit), {"message": res.message},
        )
    if res.status != 0:
        raise NumericalBreakdownError(f"LP solve failed: {res.message}")
    kvec = res.x[:n]
    objective = float(np.abs(prog.p_ref - prog.image(kvec)).sum())
    gap, note = _lp_duality_gap(res, lp)
    return SolveOutcome(
        STATUS_OPTIMAL, kvec, objective, gap, prog.residual(kvec),
        int(res.nit), {"certificate_note": note} if note else {},
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
    res = _lp(
        prog,
        np.zeros(n),
        [-1.0],
        rows=sp.hstack([-A_sup, sp.csr_matrix(p.reshape(-1, 1))], format="csr"),
        rhs=np.zeros(sup.size),
    ).solve()
    simplex_iterations = [int(res.nit)]
    if res.status == 2:
        violation, kvec, diag = phase1_violation(prog)
        diag["simplex_iterations"] = simplex_iterations
        return SolveOutcome(
            STATUS_INFEASIBLE, kvec, float("nan"), violation,
            prog.residual(kvec), 0, diag,
        )
    if res.status != 0:
        raise NumericalBreakdownError(f"KL start failed: {res.message}")
    t_star = -res.fun
    best = res.x[:n]
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
    model = _CutModel(_lp(
        prog, -prog.tie_weight * prog.anchor, np.concatenate([np.zeros(n_sup), p]),
        rows=sp.hstack([-A_sup, eye, sp.csr_matrix((n_sup, n_sup))], format="csr"),
        rhs=np.zeros(n_sup),
    ))
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
        x, dual, nit = model.run()
        iters += 1
        simplex_iterations.append(nit)
        lower = max(lower, offset + dual)
        kvec = x[:n]
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
