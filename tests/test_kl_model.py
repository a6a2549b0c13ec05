"""The KL solve's persistent HiGHS model: the private scipy API every LP
rests on, agreement with Kelley's loop solved cold (one ``linprog`` per
cut LP, built here without the solver's LP layout), and the warm restarts
it exists for."""

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from scipy.optimize import linprog
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmap import JointPMF, assemble
from fairmap.presets import preset_config
from fairmap.constants import DEFAULT_MAX_ITERS, DEFAULT_TOL, TIE_BREAK_WEIGHT
from fairmap.domain import kl_divergence
from fairmap.errors import NumericalBreakdownError
from fairmap.solver import (
    _OPTIONS,
    STATUS_INFEASIBLE,
    STATUS_INFINITE,
    STATUS_ITERATION_LIMIT,
    STATUS_OPTIMAL,
    lagrangian_bound,
    solve_kl,
)

from conftest import scipy_csr
from test_properties import random_instance


def compas_like_pmf(schema) -> JointPMF:
    """The compas preset's cells with product-form probabilities: sex,
    race, age bucket, charge degree and priors bucket are independent,
    and only the two-year recidivism rate depends on (sex, race)."""
    p_sex = np.array([0.25, 0.75])  # Female, Male
    p_race = np.array([2.0, 1.0]) / 3.0  # African-American, Caucasian
    p_age = np.full(3, 1.0 / 3.0)
    p_charge = np.array([0.65, 0.30]) / 0.95  # F, M
    p_priors = np.array([1.0, 3.0, 8.0]) / 12.0  # 0 | 1 to 3 | more
    rate = np.array([[0.393, 0.367], [0.593, 0.430]])  # [sex, race]
    p_y = np.stack([1.0 - rate, rate], axis=-1)
    mass = np.einsum("s,r,a,c,b,sry->sracby", p_sex, p_race, p_age,
                     p_charge, p_priors, p_y)
    return JointPMF(schema, mass.reshape(schema.nd, schema.nx, schema.ny), n=6500)


@pytest.fixture(scope="module")
def compas_like():
    cfg = preset_config("compas")
    return assemble(compas_like_pmf(cfg.schema), cfg.discrimination, cfg.metric,
                    cfg.budget, objective="kl")


def cold_lp(prog, c_k, c_aux, rows, rhs):
    """min c_k . k + c_aux . aux s.t. G k <= h, rows @ [k, aux] <= rhs,
    each simplex row sums to 1, 0 <= k <= 1 and aux >= 0, solved once
    through ``linprog``.  Returns the result and the multipliers of the
    ``<=`` rows, G's first (None unless optimal)."""
    n, n_aux = prog.n_vars, len(c_aux)
    A_ub = sp.vstack([sp.hstack([scipy_csr(prog.G), sp.csr_matrix((prog.h.size, n_aux))]), rows],
                     format="csr")
    b_ub = np.concatenate([prog.h, rhs])
    res = linprog(
        np.concatenate([c_k, c_aux]), A_ub=A_ub, b_ub=b_ub,
        A_eq=sp.hstack([scipy_csr(prog.row_sum_matrix()), sp.csr_matrix((prog.n_rows, n_aux))]),
        b_eq=np.ones(prog.n_rows),
        bounds=[(0.0, 1.0)] * n + [(0.0, None)] * n_aux, method="highs",
        options={"presolve": True, "primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    if res.status != 0:
        return res, None
    return res, -res.ineqlin.marginals


def cold_kelley(prog, tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """Kelley's loop of ``solve_kl`` with every cut LP rebuilt from all
    cuts so far and solved cold through ``linprog``.  Returns the status,
    the best kernel vector, its KL objective and UB - LB.  LB is
    ``lagrangian_bound`` at each cut LP's multipliers, a bound at any
    multipliers: the LP's dual objective, which rests on HiGHS's
    tolerances, once read 2.657e-10 above an optimum of 0."""
    n, m = prog.n_vars, int(prog.h.size)
    sup = np.nonzero(prog.p_ref > 0)[0]
    p, A_sup, n_sup = prog.p_ref[sup], scipy_csr(prog.A)[sup], sup.size
    res, _ = cold_lp(prog, np.zeros(n), [-1.0],
                     sp.hstack([-A_sup, sp.csr_matrix(p.reshape(-1, 1))]), np.zeros(n_sup))
    if res.status == 2:
        return STATUS_INFEASIBLE, None, float("nan"), float("nan")
    if -res.fun <= 1e-14:
        return STATUS_INFINITE, res.x[:n], float("inf"), float("nan")

    def upper(kvec):
        return kl_divergence(prog.p_ref, prog.image(kvec)) + prog.tie_term(kvec)

    best = res.x[:n]
    best_ub, lower = upper(best), -np.inf
    mu = np.zeros(prog.p_ref.size)
    q_hat = low = A_sup @ best
    eye = sp.identity(n_sup, format="csr")
    cuts = [sp.hstack([-A_sup, eye, sp.csr_matrix((n_sup, n_sup))])]
    cut_rhs = [np.zeros(n_sup)]
    iters = 0
    while best_ub - lower > tol and iters < max_iters:
        cuts.append(sp.hstack([sp.csr_matrix((n_sup, n)), sp.diags(-1.0 / q_hat), -eye]))
        cut_rhs.append(np.log(q_hat) - 1.0)
        res, y = cold_lp(prog, -TIE_BREAK_WEIGHT * prog.anchor,
                         np.concatenate([np.zeros(n_sup), p]),
                         sp.vstack(cuts), np.concatenate(cut_rhs))
        iters += 1
        assert res.status == 0, res.message
        mu[sup] = y[m:m + n_sup]
        lower = max(lower, lagrangian_bound(prog, y[:m], mu, kl=True))
        kvec = res.x[:n]
        if upper(kvec) < best_ub:
            best, best_ub = kvec, upper(kvec)
        q_hat = np.maximum(A_sup @ kvec, 0.5 * low)
        low = np.minimum(low, q_hat)
    gap = best_ub - lower
    status = STATUS_OPTIMAL if gap <= tol else STATUS_ITERATION_LIMIT
    return status, best, kl_divergence(prog.p_ref, prog.image(best)), gap


def assert_matches_cold(prog, tol=DEFAULT_TOL):
    status, kvec, objective, gap = cold_kelley(prog, tol)
    warm = solve_kl(prog, tol=tol)
    again = solve_kl(prog, tol=tol)
    assert warm.status == status
    assert again.kvec.tobytes() == warm.kvec.tobytes()
    assert (np.array([again.objective, again.certificate]).tobytes()
            == np.array([warm.objective, warm.certificate]).tobytes())
    assert again.diagnostics["simplex_iterations"] == warm.diagnostics["simplex_iterations"]
    if status != STATUS_OPTIMAL:
        return
    assert gap <= tol and warm.certificate <= tol
    assert warm.residual <= 1e-9
    # both certificates bound the objective with its tie-break term
    # (UB) from above by the same optimum; either may round to -1e-16
    assert abs((warm.objective + prog.tie_term(warm.kvec))
               - (objective + prog.tie_term(kvec))) <= (
        max(gap, 0.0) + max(warm.certificate, 0.0) + 1e-12)


def test_private_highs_api_smoke():
    # min -x0 - x1 s.t. x0 + 2 x1 <= 4, 3 x0 + x1 <= 6, 0 <= x <= 10;
    # then the cut x0 + x1 <= 2.5.  Presolve is off: it solves a
    # two-column LP outright, leaving no simplex iterations to compare.
    # Then a basis built by hand, the same LP stopped after one
    # iteration, and with x0 + x1 >= 9 in place of the cut, which is
    # infeasible
    message = (f"scipy {scipy.__version__}: the private HiGHS bindings"
               " (scipy.optimize._highspy._core) that every LP uses changed")
    try:
        from scipy.optimize._highspy import _core as highs

        def build(n_rows, starts, index, value, lower, upper, **options):
            h = highs._Highs()
            for key, val in dict(_OPTIONS, presolve="off", **options).items():
                assert h.setOptionValue(key, val) == highs.HighsStatus.kOk, key
            # the array overload; its integrality array must be full length
            assert h.passModel(
                2, n_rows, len(value), highs.MatrixFormat.kColwise,
                highs.ObjSense.kMinimize, 0.0, np.array([-1.0, -1.0]), np.zeros(2),
                np.full(2, 10.0), lower, upper, np.array(starts, dtype=np.int32),
                np.array(index, dtype=np.int32), np.array(value), np.zeros(2, dtype=np.int32),
            ) == highs.HighsStatus.kOk
            return h

        def solved(h, objective, n_rows):
            assert h.run() == highs.HighsStatus.kOk
            assert h.getModelStatus() == highs.HighsModelStatus.kOptimal
            assert h.getInfo().objective_function_value == pytest.approx(objective)
            sol = h.getSolution()
            assert sol.value_valid and sol.dual_valid
            assert len(sol.row_dual) == n_rows and len(sol.col_dual) == 2
            return int(h.getInfo().simplex_iteration_count)

        two = ([0, 2, 4], [0, 1, 0, 1], [1.0, 3.0, 2.0, 1.0])
        three = ([0, 3, 6], [0, 1, 2, 0, 1, 2], [1.0, 3.0, 1.0, 2.0, 1.0, 1.0])
        warm = build(2, *two, np.full(2, -np.inf), np.array([4.0, 6.0]))
        solved(warm, -2.8, 2)
        # an optimal basis, set on a fresh model of the same LP, is
        # optimal there at once; getBasis returns a copy, which the rows
        # added below leave at two rows
        basis = warm.getBasis()
        again = build(2, *two, np.full(2, -np.inf), np.array([4.0, 6.0]))
        assert again.setBasis(basis) == highs.HighsStatus.kOk
        assert solved(again, -2.8, 2) == 0
        assert warm.addRows(1, np.array([-np.inf]), np.array([2.5]), 2,
                            np.array([0], dtype=np.int32),
                            np.array([0, 1], dtype=np.int32),
                            np.array([1.0, 1.0])) == highs.HighsStatus.kOk
        warm_iterations = solved(warm, -2.5, 3)
        # solver.lagrangian_bound trusts only the sign of the row duals:
        # those of ``<=`` rows are <= 0, and the binding cut's is -1
        row_dual = np.asarray(warm.getSolution().row_dual)
        assert (row_dual <= 0).all() and row_dual[2] == pytest.approx(-1.0), row_dual
        cold = build(3, *three, np.full(3, -np.inf), np.array([4.0, 6.0, 2.5]))
        assert len(basis.row_status) == 2
        # a basis of another shape is refused, not started from
        assert cold.setBasis(basis) == highs.HighsStatus.kError
        assert warm_iterations < solved(cold, -2.5, 3)

        # a basis built by hand (as solver._LPModel builds the identity
        # kernel's): x0 basic, x1 at its lower bound and the first row's
        # slack basic is checked and taken; one basic entry too many is
        # refused
        status = highs.HighsBasisStatus
        hand = highs.HighsBasis()
        hand.col_status = [status.kBasic, status.kLower]
        hand.row_status = [status.kBasic, status.kUpper]
        hand.alien, hand.valid = False, True
        started = build(2, *two, np.full(2, -np.inf), np.array([4.0, 6.0]))
        assert started.setBasis(hand) == highs.HighsStatus.kOk
        solved(started, -2.8, 2)
        hand.row_status = [status.kBasic, status.kBasic]
        assert build(2, *two, np.full(2, -np.inf),
                     np.array([4.0, 6.0])).setBasis(hand) == highs.HighsStatus.kError

        short = build(2, *two, np.full(2, -np.inf), np.array([4.0, 6.0]),
                      simplex_iteration_limit=1)
        assert short.run() == highs.HighsStatus.kWarning
        assert short.getModelStatus() == highs.HighsModelStatus.kIterationLimit
        assert short.getInfo().simplex_iteration_count == 1
        # a stopped or infeasible LP may still flag its values valid; the
        # solver reads duals of optimal LPs only
        sol = short.getSolution()
        assert isinstance(sol.value_valid, bool) and isinstance(sol.dual_valid, bool)

        infeasible = build(3, *three, np.array([-np.inf, -np.inf, 9.0]),
                           np.array([4.0, 6.0, np.inf]))
        assert infeasible.run() == highs.HighsStatus.kOk
        assert infeasible.getModelStatus() == highs.HighsModelStatus.kInfeasible
    except Exception as exc:
        pytest.fail(f"{message}: {exc!r}")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(14791)
def test_matches_cold_loop_on_random_instances(seed):
    pmf, spec, metric, budget = random_instance(seed)
    assert_matches_cold(assemble(pmf, spec, metric, budget, "kl").program)


@pytest.mark.parametrize("epsilon", [0.45, 0.50, 0.55, 0.60])
def test_matches_cold_loop_on_compas_like(compas_like, epsilon):
    prog = compas_like.with_epsilon(epsilon).program
    assert solve_kl(prog).status == STATUS_OPTIMAL
    assert_matches_cold(prog)


def test_cut_lps_restart_warm(compas_like, monkeypatch):
    # each model sets one basis, before its first run: the start LP's,
    # then the cut-LP model's once it holds its first tangent rows; every
    # later cut LP restarts from the basis its model's last run left, not
    # from the identity kernel's, which fits only the first tangent rows
    from fairmap.solver import _highs

    set_basis, rows_at_set = _highs._Highs.setBasis, []

    def recorded(highs, basis):
        rows_at_set.append(highs.getNumRow())
        return set_basis(highs, basis)

    monkeypatch.setattr(_highs._Highs, "setBasis", recorded)
    prog = compas_like.with_epsilon(0.45).program
    out = solve_kl(prog)
    start, first, *rest = out.diagnostics["simplex_iterations"]
    assert len(rest) == out.iterations - 1 >= 3
    assert min(start, first) > 0
    n_sup, base = int((prog.p_ref > 0).sum()), prog.h.size + prog.n_rows
    assert rows_at_set == [base + n_sup, base + 2 * n_sup]


def test_basis_of_another_shape_is_refused(compas_like):
    # a basis is only carried between programs of one shape; another
    # shape is an error, not a silent cold start
    bases = {}
    solve_kl(compas_like.with_epsilon(0.45).program, bases=bases)
    pmf, spec, metric, budget = random_instance(0)
    with pytest.raises(NumericalBreakdownError, match="KL start LP failed: HiGHS setBasis"):
        solve_kl(assemble(pmf, spec, metric, budget, "kl").program, bases=bases)


def test_cut_lp_that_stops_short_raises(compas_like, monkeypatch):
    # HiGHS reports an iteration limit as a warning and a model status,
    # which a cut LP may not end in; the limit is set once the model has
    # gained rows, so the start LP runs to its optimum
    import fairmap.solver as solver

    add_rows = solver._LPModel.add_rows

    def add_rows_then_limit(model, rows, rhs):
        add_rows(model, rows, rhs)
        model.highs.setOptionValue("simplex_iteration_limit", 5)

    monkeypatch.setattr(solver._LPModel, "add_rows", add_rows_then_limit)
    with pytest.raises(NumericalBreakdownError, match="cut LP failed.*Iteration limit"):
        solve_kl(compas_like.with_epsilon(0.45).program)
