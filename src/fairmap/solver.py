"""Generic machinery for convex programs over products of simplices.

A :class:`SimplexImageProgram` is the shared shape of every solve in this
package (the full kernel problem and both blocks of the suppressed
formulation): variables are stacked probability rows, the objective is a
divergence between a reference distribution and an affine image of the
variables, and all side constraints are affine.

Two solve paths:

* total-variation objective: rewritten exactly as a linear program
  (auxiliary variables for the absolute values) and handed to HiGHS;
* KL objective: fully-corrective Frank-Wolfe.  Each iteration solves a
  linear minimization oracle over the feasible polytope (an LP), then
  re-optimizes exactly over the convex hull of the atoms found so far.
  Iterates stay feasible throughout and the Frank-Wolfe gap is a
  certified bound on suboptimality, which is the termination criterion.

Both paths add a tiny identity-deviation term to the objective so that
ties between algebraically equivalent optima break deterministically
toward the least-randomizing kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.special import rel_entr

from .constants import DEFAULT_MAX_ITERS, DEFAULT_TOL, TIE_BREAK_WEIGHT
from .domain import kl_divergence
from .errors import InvalidParamsError, NumericalBreakdownError

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration_limit"

_LP_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class SimplexImageProgram:
    """min  div(p_ref, A k) + tie_weight * (const - anchor . k)
    s.t.   each of n_rows consecutive blocks of length row_dim sums to 1,
           k >= 0 (entries under ``fixed_zero`` pinned to 0),
           G k <= h.
    """

    n_rows: int
    row_dim: int
    A: sp.csr_matrix
    p_ref: np.ndarray
    G: sp.csr_matrix
    h: np.ndarray
    labels: tuple[str, ...]
    anchor: np.ndarray
    fixed_zero: Optional[np.ndarray] = None
    tie_weight: float = TIE_BREAK_WEIGHT

    @property
    def n_vars(self) -> int:
        return self.n_rows * self.row_dim

    def row_sum_matrix(self) -> sp.csr_matrix:
        data = np.ones(self.n_vars)
        indices = np.arange(self.n_vars)
        indptr = np.arange(self.n_rows + 1) * self.row_dim
        return sp.csr_matrix(
            (data, indices, indptr), shape=(self.n_rows, self.n_vars)
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
        sums = kvec.reshape(self.n_rows, self.row_dim).sum(axis=1)
        viol = max(viol, float(np.max(np.abs(sums - 1.0))))
        viol = max(viol, float(max(0.0, -kvec.min())))
        return viol

    def substitute(self, S: sp.csr_matrix, n_rows: int, row_dim: int,
                   fixed_zero: Optional[np.ndarray] = None) -> "SimplexImageProgram":
        """Program over new variables v with k = S v (sparse substitution)."""
        return SimplexImageProgram(
            n_rows=n_rows,
            row_dim=row_dim,
            A=(self.A @ S).tocsr(),
            p_ref=self.p_ref,
            G=(self.G @ S).tocsr(),
            h=self.h,
            labels=self.labels,
            anchor=np.asarray(S.T @ self.anchor).ravel(),
            fixed_zero=fixed_zero,
            tie_weight=self.tie_weight,
        )


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    kvec: np.ndarray
    objective: float  # primary objective, tie-break excluded
    certificate: float  # duality gap / phase-1 total violation
    residual: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def _lp(prog: SimplexImageProgram, c_k: np.ndarray, c_aux=(), g_aux=None,
        rows=None, rhs=None, maxiter=None):
    """One HiGHS call over the variables [k, aux].

    Minimizes c_k . k + c_aux . aux subject to the program's simplex rows
    and side constraints (``g_aux`` holds the auxiliary columns of the
    side-constraint rows; zero when omitted) plus ``rows @ [k, aux] <=
    rhs``.  Kernel entries lie in [0, 1] (pinned to 0 under
    ``fixed_zero``); auxiliary variables are nonnegative.  Returns the
    HiGHS result with the ``b_ub`` and the upper bounds it was given.
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
    b_ub = np.concatenate(b_ub) if b_ub else None
    A_eq = prog.row_sum_matrix()
    if n_aux:
        A_eq = sp.hstack([A_eq, sp.csr_matrix((prog.n_rows, n_aux))], format="csr")
    ub = np.ones(prog.n_vars)
    if prog.fixed_zero is not None:
        ub = np.where(prog.fixed_zero, 0.0, 1.0)
    ub = np.concatenate([ub, np.full(n_aux, np.inf)])
    res = linprog(
        np.concatenate([c_k, c_aux]),
        A_ub=sp.vstack(A_ub, format="csr") if A_ub else None,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=np.ones(prog.n_rows),
        bounds=np.column_stack([np.zeros(ub.size), ub]),
        method="highs",
        options=dict(_LP_OPTIONS, maxiter=maxiter),
    )
    return res, b_ub, ub


def phase1_violation(prog: SimplexImageProgram) -> tuple[float, np.ndarray, dict]:
    """Minimum total side-constraint violation (simplex rows stay hard).

    Returns the optimal total violation, the violation-minimizing kernel,
    and diagnostics naming the worst constraint there.
    """
    n, m = prog.n_vars, int(prog.h.size)
    res, _, _ = _lp(prog, np.zeros(n), np.ones(m), -sp.identity(m, format="csr"))
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


def _lp_duality_gap(res, b_ub: np.ndarray, ub: np.ndarray) -> tuple[float, str]:
    """|primal - dual| from the marginals HiGHS reports (lower bounds are
    all 0 and the simplex rows all equal 1), or NaN and the reason."""
    if res.eqlin.marginals is None:
        return float("nan"), "HiGHS reported no dual values"
    finite = np.isfinite(ub)
    dual = (
        float(res.ineqlin.marginals @ b_ub)
        + float(res.eqlin.marginals.sum())
        + float(res.upper.marginals[finite] @ ub[finite])
    )
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
    res, b_ub, ub = _lp(
        prog,
        -prog.tie_weight * prog.anchor,
        np.ones(n_img),
        rows=sp.vstack([sp.hstack([-A, -I]), sp.hstack([A, -I])], format="csr"),
        rhs=np.concatenate([-prog.p_ref, prog.p_ref]),
        maxiter=max_iters,
    )
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
    gap, note = _lp_duality_gap(res, b_ub, ub)
    return SolveOutcome(
        STATUS_OPTIMAL, kvec, objective, gap, prog.residual(kvec),
        int(res.nit), {"certificate_note": note} if note else {},
    )


# ---------------------------------------------------------------------------
# KL path: fully-corrective Frank-Wolfe
# ---------------------------------------------------------------------------


def _project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _optimize_atom_weights(
    images: np.ndarray,  # (n_img, n_atoms)
    anchors: np.ndarray,  # (n_atoms,)
    p_ref: np.ndarray,
    lam: np.ndarray,
    tie_weight: float,
    tol: float,
    max_iters: int = 4000,
) -> np.ndarray:
    """Exactly minimize the composite objective over the atom simplex.

    Projected gradient with Armijo backtracking; the objective is smooth
    wherever it is finite and KL acts as its own barrier against losing
    coverage of supported cells.
    """
    support = p_ref > 0

    def value(l):
        q = images @ l
        if np.any(q[support] <= 0.0):
            return float("inf")
        return float(rel_entr(p_ref, q).sum()) - tie_weight * float(anchors @ l)

    def gradient(l):
        q = images @ l
        gq = np.zeros_like(q)
        gq[support] = -p_ref[support] / q[support]
        return images.T @ gq - tie_weight * anchors

    f = value(lam)
    step = 1.0
    for _ in range(max_iters):
        g = gradient(lam)
        # Frank-Wolfe gap over the simplex certifies stationarity
        gap = float(g @ lam - g.min())
        if gap <= tol:
            break
        accepted = False
        for _ in range(60):
            cand = _project_simplex(lam - step * g)
            fc = value(cand)
            if np.isfinite(fc) and fc <= f + 1e-4 * float(g @ (cand - lam)):
                lam, f = cand, fc
                step = min(step * 2.0, 1e12)
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
    return lam


def solve_kl(prog: SimplexImageProgram, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS) -> SolveOutcome:
    """Fully-corrective Frank-Wolfe on the KL objective.

    Terminates when the Frank-Wolfe duality gap drops to ``tol``; the gap
    bounds the suboptimality of the returned (always feasible) iterate.
    """
    if tol <= 0:
        raise InvalidParamsError("tol must be positive")
    n = prog.n_vars
    p_ref = prog.p_ref
    support = p_ref > 0

    # start from a feasible point that covers the supported image cells:
    # maximize t subject to (A k)_j >= t * p_j on the support
    A_sup = prog.A[np.nonzero(support)[0]]
    res, _, _ = _lp(
        prog,
        np.zeros(n),
        [-1.0],
        rows=sp.hstack(
            [-A_sup, sp.csr_matrix(p_ref[support].reshape(-1, 1))], format="csr"
        ),
        rhs=np.zeros(A_sup.shape[0]),
    )
    if res.status == 2:
        violation, kvec, diag = phase1_violation(prog)
        return SolveOutcome(
            STATUS_INFEASIBLE, kvec, float("nan"), violation,
            prog.residual(kvec), 0, diag,
        )
    if res.status != 0:
        raise NumericalBreakdownError(f"KL start failed: {res.message}")
    t_star = -res.fun
    if t_star <= 1e-14:
        raise NumericalBreakdownError(
            "every feasible transform zeroes a populated cell;"
            " KL objective is infinite on the whole feasible set"
        )
    start = res.x[:n]

    atoms = [start]
    atom_keys = {start.tobytes()}
    images = prog.image(start).reshape(-1, 1)
    anchors = np.array([float(prog.anchor @ start)])
    lam = np.array([1.0])
    kvec = start.copy()

    gap = float("inf")
    lmo_calls = 0
    inner_tol = min(tol * 1e-2, 1e-9)
    stalls = 0
    while lmo_calls < max_iters:
        q = images @ lam
        grad_img = np.zeros_like(q)
        grad_img[support] = -p_ref[support] / q[support]
        g = np.asarray(prog.A.T @ grad_img) - prog.tie_weight * prog.anchor
        lp, _, _ = _lp(prog, g)
        lmo_calls += 1
        if lp.status != 0:
            raise NumericalBreakdownError(f"LMO failed: {lp.message}")
        v = lp.x
        gap = float(g @ (kvec - v))
        if gap <= tol:
            break
        key = v.tobytes()
        if key in atom_keys:
            stalls += 1
            if stalls > 4:
                break  # inner solver can no longer reduce a certified gap
            inner_tol = max(inner_tol * 1e-3, 1e-15)
        else:
            atoms.append(v)
            atom_keys.add(key)
            images = np.column_stack([images, prog.image(v)])
            anchors = np.append(anchors, float(prog.anchor @ v))
            lam = np.append(lam, 0.0)
        lam = _optimize_atom_weights(
            images, anchors, p_ref, lam, prog.tie_weight, inner_tol
        )
        keep = lam > 1e-15
        if not keep.all():
            keep[int(np.argmax(lam))] = True
            atoms = [a for a, k in zip(atoms, keep) if k]
            images = images[:, keep]
            anchors = anchors[keep]
            lam = lam[keep] / lam[keep].sum()
            atom_keys = {a.tobytes() for a in atoms}
        kvec = np.zeros(n)
        for a, l in zip(atoms, lam):
            kvec += l * a

    objective = kl_divergence(p_ref, prog.image(kvec))
    status = STATUS_OPTIMAL if gap <= tol else STATUS_ITERATION_LIMIT
    return SolveOutcome(
        status, kvec, objective, gap, prog.residual(kvec), lmo_calls,
        {"atoms": len(atoms), "coverage": float(t_star)},
    )
