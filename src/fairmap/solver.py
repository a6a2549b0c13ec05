"""Generic machinery for convex programs over products of simplices.

A :class:`SimplexImageProgram` is the shared shape of every solve in this
package (the full kernel problem and both blocks of the suppressed
formulation): variables are stacked probability rows, the objective is a
divergence between a reference distribution and an affine image of the
variables, and all side constraints are affine.

Two solve paths:

* total-variation objective: rewritten exactly as a linear program and
  handed to HiGHS.  One auxiliary variable and one row per image cell
  bound the positive part of p_j - (A k)_j, and twice their sum is the
  l1 distance up to a constant (see ``solve_tv``);
* KL objective: Kelley's cutting-plane method.  The objective is
  separable in the image q = A k, so each iteration is one LP of the same
  [k, aux] shape, with tangent cuts of -log standing in for the
  objective.  The cut LPs of one solve are one persistent HiGHS model
  that gains each iteration's cut rows and restarts from the last basis.

Both certify a kernel by UB - L: the objective with its tie-break term
at the kernel, minus ``lagrangian_bound`` at an optimal LP's row duals
(a bound for any multipliers; only the duals' sign is trusted, and it is
enforced).  For KL, UB - L is also the termination criterion.

Every LP is one HiGHS model (``_LPModel``, on SciPy's bundled HiGHS
bindings ``scipy.optimize._highspy._core``): the l1 LP, phase 1 and the KL
start LP run once; the KL cut LPs are one model that gains rows.  The
first run of each starts from a basis, never from HiGHS's all-slack one:
the basis the caller hands in ``bases`` when it holds one
(``sweep_epsilon`` hands each grid point the bases of the looser points),
else the identity kernel's.  The identity kernel meets every simplex and
distortion row, so the dual simplex only repairs the discrimination rows
it violates.  A basis, handed or identity, bypasses HiGHS's presolve
(see ``_LPModel``).
Every LP adds a tiny identity-deviation term to the objective so that
ties between algebraically equivalent optima break deterministically
toward the least-randomizing kernel.

From SciPy this module loads that extension module alone (``_load_highs``),
not ``scipy.optimize``.  Its matrices are ``_csr.CSR`` records, handed to
HiGHS row-wise, and its logarithms are libm's (``domain.xlogy``).
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from typing import NamedTuple

import numpy as np
import scipy

from ._csr import CSR, hstack, identity, vstack, zeros
from .constants import DEFAULT_MAX_ITERS, DEFAULT_TOL, TIE_BREAK_WEIGHT
from .domain import kl_divergence, xlogy
from .errors import InvalidParamsError, NumericalBreakdownError


def _load_highs():
    """``scipy.optimize._highspy._core`` loaded from its file beside
    ``scipy``, so that ``scipy.optimize``'s ``__init__`` (scipy.linalg,
    scipy.sparse.linalg, every optimizer) never runs for it.  It enters
    ``sys.modules`` before it runs: a later ``import scipy.optimize``
    reuses it, and pybind11 registers its types once (the ``_highspy``
    package's ``_core`` attribute stays unset).  Without such a file (an
    editable SciPy build, say) the regular import is taken."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = PathFinder.find_spec(name, [folder])
    if spec is None:
        from scipy.optimize._highspy import _core
        return _core
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


_highs = _load_highs()


def __getattr__(name: str):
    # linprog is never called here; bench/spans.py wraps the name in traced
    # runs, so it (and all of scipy.optimize) is imported only when looked up
    if name == "linprog":
        from scipy.optimize import linprog
        return linprog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_ITERATION_LIMIT = "iteration_limit"
STATUS_INFINITE = "infinite_objective"

# HiGHS options of every LP (those linprog passed: dual simplex, tight
# feasibility tolerances; no presolve option, since every run starts from
# a basis, which bypasses presolve)
_OPTIONS = {
    "output_flag": False,
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
    """min  div(p_ref, A k) + TIE_BREAK_WEIGHT * (const - anchor . k)
    s.t.   each simplex row k[row_ptr[i]:row_ptr[i + 1]] sums to 1,
           k >= 0, G k <= h.
    """

    row_ptr: np.ndarray
    A: CSR
    p_ref: np.ndarray
    G: CSR
    h: np.ndarray
    labels: tuple[str, ...]
    anchor: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.row_ptr.size - 1)

    @property
    def n_vars(self) -> int:
        return int(self.row_ptr[-1])

    def row_sum_matrix(self) -> CSR:
        return CSR(self.row_ptr, np.arange(self.n_vars), np.ones(self.n_vars),
                   (self.n_rows, self.n_vars))

    def image(self, kvec: np.ndarray) -> np.ndarray:
        return self.A @ kvec

    def tie_term(self, kvec: np.ndarray) -> float:
        return TIE_BREAK_WEIGHT * (self.n_rows - float(self.anchor @ kvec))

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

    def substitute(self, S: CSR, row_ptr: np.ndarray,
                   pins: CSR, pin_labels) -> "SimplexImageProgram":
        """Program over new variables v with k = S v (sparse substitution)
        and simplex rows ``row_ptr``, plus the rows ``pins @ v <= 0``."""
        return SimplexImageProgram(
            row_ptr=row_ptr,
            A=self.A @ S,
            p_ref=self.p_ref,
            G=vstack([self.G @ S, pins]),
            h=np.concatenate([self.h, np.zeros(pins.shape[0])]),
            labels=self.labels + tuple(pin_labels),
            anchor=S.rmatvec(self.anchor),
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
    row_dual: np.ndarray | None  # in HiGHS's row order; None unless optimal with duals
    iterations: int  # simplex iterations of this run


class _LPModel:
    """The HiGHS model, named ``name`` in errors, of min c_k . k + c_aux . aux
    over x = [k, aux] s.t. G k + g_aux aux <= h (g_aux zero when omitted),
    ``rows @ x <= rhs``, the program's simplex rows, 0 <= k <= 1 and
    aux >= 0.  HiGHS holds the rows as [G; ``rows``; simplex rows; appended
    rows].  ``add_rows`` appends ``<=`` rows, and every ``run`` after the
    first restarts the dual simplex from the basis of the run before.

    ``bases`` (optional) carries optimal bases between models of one shape
    (an LP of one program at another epsilon): the first ``run`` starts
    from ``bases[name]`` when it holds one and, if optimal, stores its own
    basis there.  Otherwise the first ``run`` starts from the identity
    kernel's basis (see ``_identity_basis``; the cut LP passes
    ``aux_basic``).  A handed basis wins over the identity one, and either
    bypasses HiGHS's presolve."""

    def __init__(self, name: str, prog: SimplexImageProgram, c_k: np.ndarray, c_aux,
                 g_aux=None, rows=None, rhs=None, bases: dict | None = None,
                 aux_basic: bool = False):
        self.name, self.bases, self.prog, self.aux_basic = name, bases, prog, aux_basic
        self.fresh, n_aux = True, len(c_aux)
        aux = zeros((prog.h.size, n_aux)) if g_aux is None else g_aux
        if rows is None:
            rows, rhs = zeros((0, prog.n_vars + n_aux)), np.zeros(0)
        self.n_given_rows = rows.shape[0]
        A = vstack([hstack([prog.G, aux]), rows,
                    hstack([prog.row_sum_matrix(), zeros((prog.n_rows, n_aux))])])
        self.highs = _highs._Highs()
        for key, value in _OPTIONS.items():
            self._set(key, value)
        # HiGHS drops entries at or below small_matrix_value (rounding
        # residue, such as a substituted factor's) and then warns
        status, small = self.highs.getOptionValue("small_matrix_value")
        self._ok(status, "getOptionValue('small_matrix_value')")
        keep = np.abs(A.data) > small
        starts = np.concatenate(([0], np.cumsum(keep)))[A.indptr].astype(np.int32)
        # the array overload (HighsLp's setters convert arrays element by
        # element); its integrality array must be full length
        ones = np.ones(prog.n_rows)
        num_row, num_col = A.shape
        self._ok(self.highs.passModel(
            num_col, num_row, int(starts[-1]), _highs.MatrixFormat.kRowwise,
            _highs.ObjSense.kMinimize,
            0.0, np.concatenate([c_k, c_aux]), np.zeros(num_col),
            np.concatenate([np.ones(prog.n_vars), np.full(n_aux, np.inf)]),
            np.concatenate([np.full(num_row - ones.size, -np.inf), ones]),
            np.concatenate([prog.h, rhs, ones]),
            starts, A.indices[keep], A.data[keep],
            np.zeros(num_col, dtype=np.int32),
        ), "passModel")

    def _ok(self, status, call: str) -> None:
        if status != _highs.HighsStatus.kOk:
            raise NumericalBreakdownError(f"{self.name} failed: HiGHS {call} returned {status.name}")

    def _set(self, key: str, value) -> None:
        self._ok(self.highs.setOptionValue(key, value), f"setOptionValue({key!r})")

    def add_rows(self, rows: CSR, rhs: np.ndarray) -> None:
        """Append the rows ``rows @ x <= rhs``.

        A model that gains rows is solved with max-value scaling (4): under
        HiGHS's default scaling a warm-started primal's simplex-row sums
        drift past what a kernel row may miss 1 by (1e-9), and unscaled (0)
        the cut LP of an identity-optimal instance can end up to 2e-9 off
        its optimum.  LPs that run once keep the default scaling, also
        when started from a handed basis: there the primal's row sums
        stayed within 1e-13 of 1 on adult- and compas-shaped sweeps, and
        scaling 4 cost the adult l1 sweep simplex iterations."""
        self._set("simplex_scale_strategy", 4)
        self._ok(self.highs.addRows(
            rows.shape[0], np.full(rows.shape[0], -np.inf), rhs, rows.nnz,
            rows.indptr[:-1], rows.indices, rows.data,
        ), "addRows")

    def _identity_basis(self) -> _highs.HighsBasis:
        """The basis at the identity kernel.  In each simplex row the entry
        with the largest anchor value (the first on ties) is basic: the
        identity entry of the full program, which is never pinned.  Every
        other column is nonbasic at 0, every simplex row is nonbasic and
        the slack of every other row is basic.  With ``aux_basic`` (the cut
        LP, built with one tangent row per link row before its first run)
        the aux columns are basic instead, and ``rows`` and the appended
        rows are tight.

        The basis matrix is block-triangular with unit or nonzero
        diagonal, so it is nonsingular, and it holds one basic entry per
        row.  For phase 1, and for the l1 LP of a program whose A columns
        sum to one value on each simplex row (every full program), it is
        also dual feasible: every nonbasic column's reduced cost is 0 or 1
        (phase 1), 2 (the l1 LP's deviation columns) or tau times an anchor
        gap."""
        prog, status = self.prog, _highs.HighsBasisStatus
        n, starts = prog.n_vars, prog.row_ptr[:-1]
        top = np.repeat(np.maximum.reduceat(prog.anchor, starts), np.diff(prog.row_ptr))
        cols = np.full(self.highs.getNumCol(), status.kLower, dtype=object)
        cols[np.minimum.reduceat(np.where(prog.anchor == top, np.arange(n), n), starts)] = (
            status.kBasic)
        other = status.kBasic
        if self.aux_basic:
            cols[n:], other = status.kBasic, status.kUpper
        m = prog.h.size
        n_appended = self.highs.getNumRow() - m - self.n_given_rows - prog.n_rows
        basis = _highs.HighsBasis()
        basis.col_status = cols.tolist()
        basis.row_status = ([status.kBasic] * m + [other] * self.n_given_rows
                            + [status.kLower] * prog.n_rows + [other] * n_appended)
        basis.alien, basis.valid = False, True
        return basis

    def run(self, *allowed: str, max_iters: int | None = None) -> _Run:
        """Solve, within ``max_iters`` simplex iterations if given.  An
        outcome other than optimal or one of the ``allowed`` statuses
        raises ``NumericalBreakdownError``."""
        if max_iters is not None:
            self._set("simplex_iteration_limit", max_iters)
        fresh, self.fresh = self.fresh, False
        if fresh:
            handed = (self.bases or {}).get(self.name)
            self._ok(self.highs.setBasis(self._identity_basis() if handed is None else handed),
                     "setBasis")
        if self.highs.run() == _highs.HighsStatus.kError:
            raise NumericalBreakdownError(f"{self.name} failed: HiGHS run returned kError")
        model_status = self.highs.getModelStatus()
        status = _STATUS.get(model_status)
        if status != STATUS_OPTIMAL and status not in allowed:
            raise NumericalBreakdownError(
                f"{self.name} failed: HiGHS model status"
                f" {self.highs.modelStatusToString(model_status)}"
            )
        if fresh and self.bases is not None and status == STATUS_OPTIMAL:
            self.bases[self.name] = self.highs.getBasis()
        sol, info = self.highs.getSolution(), self.highs.getInfo()
        x = np.asarray(sol.col_value) if sol.value_valid else None
        row_dual = (np.asarray(sol.row_dual)
                    if status == STATUS_OPTIMAL and sol.dual_valid else None)
        return _Run(status, x, float(info.objective_function_value), row_dual,
                    int(info.simplex_iteration_count))


def phase1_violation(prog: SimplexImageProgram,
                     bases: dict | None = None) -> tuple[float, np.ndarray, dict]:
    """Minimum total side-constraint violation (simplex rows stay hard).

    Returns the optimal total violation, the violation-minimizing kernel,
    and diagnostics naming the worst constraint there and summing the
    violations by label family (the label's first word, such as
    ``disc[pairwise]``, ``dist[expected]`` or ``pin``), whose units differ.
    The LP starts from the identity kernel's basis, or from the one
    ``bases`` hands it, as in ``_LPModel``.
    """
    n, m = prog.n_vars, int(prog.h.size)
    x = _LPModel("phase-1 LP", prog, np.zeros(n), np.ones(m),
                 -identity(m), bases=bases).run().x
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


def lagrangian_bound(prog: SimplexImageProgram, lam: np.ndarray, mu: np.ndarray,
                     kl: bool) -> float:
    """The weak-duality bound L <= the optimum of ``prog`` (tie-break
    included) at any multipliers ``lam`` of G k <= h (clipped at 0) and
    ``mu`` of q = A k, the divergence's image: the Lagrangian minimized
    over kernels and over q,

    L = tau n_rows - lam . h + sum_j phi_j(mu_j)
        + sum over simplex rows of min_i (G^T lam - A^T mu - tau anchor)_i

    with tau = TIE_BREAK_WEIGHT and phi_j(mu) = min over q of term j of
    the divergence plus mu q.  For KL, 0 <= q <= 1 (A's weights are a
    pmf): phi_j(mu) = p_j + p_j log mu if mu >= p_j, else mu + p_j log p_j
    (0 log 0 = 0).  For l1, mu is clipped to [-1, 1] and phi_j = mu p_j.
    """
    lam = np.maximum(lam, 0.0)
    p = prog.p_ref
    if kl:
        # q_j = p_j / mu_j when that is at most 1, else q_j = 1
        phi = np.where(mu >= p, p + xlogy(p, np.maximum(mu, p)), mu + xlogy(p, p))
    else:
        mu = np.clip(mu, -1.0, 1.0)
        phi = mu * p
    reduced = prog.G.rmatvec(lam) - prog.A.rmatvec(mu) - TIE_BREAK_WEIGHT * prog.anchor
    # every simplex row holds a variable whenever an LP is optimal (an
    # empty row cannot sum to 1), so no reduceat segment is empty
    return (TIE_BREAK_WEIGHT * prog.n_rows - float(lam @ prog.h) + float(phi.sum())
            + float(np.minimum.reduceat(reduced, prog.row_ptr[:-1]).sum()))


def solve_tv(prog: SimplexImageProgram, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS, bases: dict | None = None) -> SolveOutcome:
    """Exact LP solve of the total-variation (l1) objective.  The LP, and
    phase 1 when it runs, start from the identity kernel's basis, or from
    the one ``bases`` hands them, as in ``_LPModel``."""
    if not tol > 0:  # NaN fails this test too
        raise InvalidParamsError("tol must be positive")
    if not max_iters >= 0:
        raise InvalidParamsError("max_iters must be nonnegative")
    n, m, n_img = prog.n_vars, int(prog.h.size), int(prog.p_ref.size)
    # variables [k, u]; u_j >= p_j - (A k)_j, one row per image cell.  As
    # |x| = 2 x_+ - x, 2 sum_j u_j = |p - A k|_1 + 1^T p - s . k at the
    # optimal u, with s = 1^T A.  On a full program s is the row's weight on
    # every entry of a simplex row, so s . k is 1 on every kernel.  Where s
    # varies within a row (a factorized block with pin rows), c_k gains s
    # less its row maximum, so the LP objective is |p - A k|_1 plus a
    # constant either way
    s = prog.A.col_sums()
    s -= np.repeat(np.maximum.reduceat(s, prog.row_ptr[:-1]), np.diff(prog.row_ptr))
    run = _LPModel(
        "l1 LP", prog, s - TIE_BREAK_WEIGHT * prog.anchor, np.full(n_img, 2.0),
        rows=hstack([-prog.A, -identity(n_img)]),
        rhs=-prog.p_ref, bases=bases,
    ).run(STATUS_INFEASIBLE, STATUS_ITERATION_LIMIT, max_iters=max_iters)
    if run.status != STATUS_OPTIMAL:
        # a stopped LP need not hold a primal, nor a row-stochastic one;
        # phase 1's kernel keeps every simplex row, and every side
        # constraint when the program is feasible
        violation, kvec, diag = phase1_violation(prog, bases)
        if run.status == STATUS_INFEASIBLE or violation > tol:
            return SolveOutcome(
                STATUS_INFEASIBLE, kvec, float("nan"), violation,
                prog.residual(kvec), run.iterations, diag,
            )
        return SolveOutcome(
            STATUS_ITERATION_LIMIT, kvec, float("nan"), float("inf"),
            prog.residual(kvec), run.iterations,
            {"message": f"HiGHS stopped after {max_iters} simplex iterations"},
        )
    kvec = run.x[:n]
    objective = float(np.abs(prog.p_ref - prog.image(kvec)).sum())
    # HiGHS's duals of ``<=`` rows are <= 0; nu_j in [0, 2] prices the
    # deviation row of image cell j, and mu_j = nu_j - 1 prices (A k)_j in
    # |p_j - (A k)_j|.  L is then the LP's dual value less the constant
    # above, so it is as tight as the LP (zero multipliers when HiGHS
    # reported none)
    lam, mu = np.zeros(m), np.zeros(n_img)
    if run.row_dual is not None:
        lam, mu = -run.row_dual[:m], -run.row_dual[m:m + n_img] - 1.0
    lower = lagrangian_bound(prog, lam, mu, kl=False)
    return SolveOutcome(
        STATUS_OPTIMAL, kvec, objective, objective + prog.tie_term(kvec) - lower,
        prog.residual(kvec), run.iterations,
    )


def solve_kl(prog: SimplexImageProgram, tol: float = DEFAULT_TOL,
             max_iters: int = DEFAULT_MAX_ITERS, bases: dict | None = None) -> SolveOutcome:
    """Kelley's cutting-plane method on the KL objective.

    On the supported cells the objective is sum_j p_j log p_j - sum_j p_j
    log q_j with q = A k, plus the tie-break term.  Each iteration solves
    an LP over [k, q, t] whose rows replace the epigraph of every -log q_j
    by its tangents at the images seen so far, then adds the tangents at
    the new image.  The cut LPs are one HiGHS model that gains each
    iteration's tangent rows, so each solve restarts from the basis of
    the one before.  ``lagrangian_bound`` at each cut LP's multipliers
    bounds the optimum from below (LB is the best such bound) and the
    objective at the best iterate bounds it from above (UB); the loop
    stops once UB - LB <= ``tol``, and UB - LB is the certificate.

    When every feasible kernel leaves a supported cell uncovered, the
    objective is infinite on the whole feasible set: the status is
    ``STATUS_INFINITE`` and ``diagnostics["uncovered_cell"]`` is the image
    index of the cell the start LP covers least.

    The start LP, the first cut LP and phase 1 start from the identity
    kernel's basis, or from the one ``bases`` hands them, as in
    ``_LPModel``; the later cut LPs restart from their own model's basis.
    """
    if not tol > 0:  # NaN fails this test too
        raise InvalidParamsError("tol must be positive")
    if not max_iters >= 0:
        raise InvalidParamsError("max_iters must be nonnegative")
    n, m = prog.n_vars, int(prog.h.size)
    sup = np.nonzero(prog.p_ref > 0)[0]
    p = prog.p_ref[sup]
    A_sup = prog.A.take_rows(sup)

    # start from a feasible point that covers the supported image cells:
    # maximize t subject to (A k)_j >= t * p_j on the support
    start = _LPModel(
        "KL start LP", prog, np.zeros(n), [-1.0],
        rows=hstack([-A_sup, CSR(np.arange(sup.size + 1), np.zeros(sup.size), p, (sup.size, 1))]),
        rhs=np.zeros(sup.size), bases=bases,
    ).run(STATUS_INFEASIBLE)
    simplex_iterations = [start.iterations]
    if start.status == STATUS_INFEASIBLE:
        violation, kvec, diag = phase1_violation(prog, bases)
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
    mu = np.zeros(prog.p_ref.size)  # off the support, q_j is priced at 0
    q_hat = A_sup @ best  # positive: the start covers every supported cell
    low = q_hat
    # variables [k, q, t]: q_j <= (A k)_j and t_j above the tangents of
    # -log at q_j; both bind at an optimum (-log decreases), so the LP
    # bound is that of tangents in (A k)_j, while each cut row has two
    # nonzeros (at q_j and t_j) instead of a row of A
    n_sup = sup.size
    model = _LPModel(
        "cut LP", prog, -TIE_BREAK_WEIGHT * prog.anchor, np.concatenate([np.zeros(n_sup), p]),
        rows=hstack([-A_sup, identity(n_sup), zeros((n_sup, n_sup))]),
        rhs=np.zeros(n_sup), bases=bases, aux_basic=True,
    )
    cut_cols = np.column_stack([n + np.arange(n_sup), n + n_sup + np.arange(n_sup)])
    iters = 0
    while best_ub - lower > tol and iters < max_iters:
        # tangent at q_hat: t_j >= -log q_hat_j + 1 - q_j / q_hat_j; the
        # model keeps q, t >= 0, which cuts nothing off since 0 <= (A k)_j <= 1
        model.add_rows(
            CSR(np.arange(0, 2 * n_sup + 1, 2), cut_cols.ravel(),
                np.column_stack([-1.0 / q_hat, -np.ones(n_sup)]).ravel(), (n_sup, n + 2 * n_sup)),
            np.log(q_hat) - 1.0,
        )
        run = model.run()
        iters += 1
        simplex_iterations.append(run.iterations)
        # the multipliers of G k <= h and of q <= A k, as in solve_tv
        y = -run.row_dual if run.row_dual is not None else np.zeros(m + n_sup)
        mu[sup] = y[m:m + n_sup]
        lower = max(lower, lagrangian_bound(prog, y[:m], mu, kl=True))
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
