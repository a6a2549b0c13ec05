"""Suppressed-formulation (factorized kernel) tests."""

import numpy as np
import pytest

from fairmap import (
    DiscriminationSpec,
    DistortionBudget,
    DistortionMetric,
    JointPMF,
    TransformKernel,
    assemble,
    sof_solve,
    solve,
)

from conftest import make_schema, random_pmf
from test_properties import INFINITE_SEED, random_instance


def movement_metric(schema, x_cost=1.0, y_costs=(1.0, 1.0)):
    nx1 = len(schema.x_vars[0].alphabet)
    x_table = np.full((nx1, nx1), x_cost)
    np.fill_diagonal(x_table, 0.0)
    return DistortionMetric(
        "per_attribute",
        x_tables=(x_table,),
        y_table=np.array([[0.0, y_costs[0]], [y_costs[1], 0.0]]),
        combiner="sum",
    )


def sof_instance(rng, eps=0.5, c=1.5, nx=2):
    schema = make_schema(nx=nx)
    pmf = random_pmf(schema, rng)
    spec = DiscriminationSpec(mode="target", epsilon=eps)
    metric = movement_metric(schema)
    budget = DistortionBudget("expected", c=c)
    return pmf, spec, metric, budget


def factorization_residual(solution, schema):
    w = solution.diagnostics["sof_y_given_xhat"]
    m = solution.diagnostics["sof_xhat_given_dxy"]
    probs = solution.kernel.probs
    worst = 0.0
    row = 0
    for d in range(schema.nd):
        for x in range(schema.nx):
            for y in range(schema.ny):
                expect = (m[row][:, None] * w).ravel() if row < m.shape[0] else None
                if expect is not None:
                    worst = max(worst, np.abs(probs[d, x, y] - expect).max())
                row += 1
    return worst


class TestFixConditional:
    def test_independent_groups_solve_to_zero(self, rng):
        schema = make_schema(nx=2)
        pd = np.array([0.45, 0.55])
        pxy = rng.dirichlet(np.ones(4)).reshape(2, 2)
        pmf = JointPMF(schema, pd[:, None, None] * pxy[None, :, :])
        problem = assemble(
            pmf,
            DiscriminationSpec(mode="target", epsilon=0.2),
            movement_metric(schema),
            DistortionBudget("expected", c=1.0),
            objective="kl",
        )
        sol = sof_solve(problem, strategy="fix_conditional")
        assert sol.status == "optimal"
        assert sol.objective <= 1e-8

    @pytest.mark.parametrize("objective", ["l1", "kl"])
    def test_objective_equals_marginal_divergence(self, rng, objective):
        # with the outcome conditional pinned to the original one, the
        # utility loss collapses to the feature-marginal divergence
        pmf, spec, metric, budget = sof_instance(rng)
        problem = assemble(pmf, spec, metric, budget, objective)
        sol = sof_solve(problem, strategy="fix_conditional")
        if sol.status != "optimal":
            pytest.skip("instance infeasible under the pinned conditional")
        bound = sol.diagnostics["f_divergence_lower_bound"]
        assert sol.objective >= bound - 1e-12
        assert sol.objective == pytest.approx(bound, abs=1e-9)

    def test_unreachable_target_reports_infeasible(self):
        # one feature value: the pinned conditional forces every group's
        # transformed rate to the overall marginal, so a far-away explicit
        # target cannot be met, while the free problem can flip outcomes
        schema = make_schema(nx=1)
        mass = np.array([[[0.2, 0.3]], [[0.3, 0.2]]])
        pmf = JointPMF(schema, mass)
        spec = DiscriminationSpec(
            mode="target", target=np.array([0.7, 0.3]), epsilon=0.1
        )
        metric = movement_metric(schema)
        budget = DistortionBudget("expected", c=1.0)
        problem = assemble(pmf, spec, metric, budget, "l1")
        sof = sof_solve(problem, strategy="fix_conditional")
        assert sof.status == "infeasible"
        assert sof.certificate > 1e-6
        full = solve(problem)
        assert full.status == "optimal"

    def test_factorization_identity_exact(self, rng):
        pmf, spec, metric, budget = sof_instance(rng)
        problem = assemble(pmf, spec, metric, budget, "l1")
        sol = sof_solve(problem, strategy="fix_conditional")
        assert factorization_residual(sol, pmf.schema) <= 1e-12


class TestAlternating:
    def test_trace_nonincreasing_and_factorized(self):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(12):
            pmf, spec, metric, budget = sof_instance(rng, eps=0.6, c=2.0)
            problem = assemble(pmf, spec, metric, budget, "l1")
            sol = sof_solve(problem, strategy="alternating", max_outer=25)
            if sol.status == "infeasible":
                continue
            trace = sol.diagnostics["objective_trace"]
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert factorization_residual(sol, pmf.schema) <= 1e-12
            checked += 1
        assert checked >= 6

    def test_alternating_kl_blocks(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(8):
            pmf, spec, metric, budget = sof_instance(rng, eps=0.6, c=2.0)
            problem = assemble(pmf, spec, metric, budget, "kl")
            sol = sof_solve(problem, strategy="alternating", max_outer=15)
            if sol.status == "infeasible":
                continue
            trace = sol.diagnostics["objective_trace"]
            assert all(b <= a for a, b in zip(trace, trace[1:]))
            assert sol.residual <= 1e-6
            checked += 1
        assert checked >= 4

    def test_restriction_never_beats_full_solve(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(10):
            pmf, spec, metric, budget = sof_instance(rng, eps=0.4, c=1.2)
            problem = assemble(pmf, spec, metric, budget, "l1")
            full = solve(problem)
            alt = sof_solve(problem, strategy="alternating", max_outer=25)
            if full.status != "optimal" or alt.status != "optimal":
                continue
            assert alt.objective >= full.objective - 1e-6
            checked += 1
        assert checked >= 5

    def test_recovers_when_pinned_conditional_infeasible(self):
        # same instance on which fix_conditional fails: the alternating
        # scheme may move the outcome conditional and reach the target
        schema = make_schema(nx=1)
        mass = np.array([[[0.2, 0.3]], [[0.3, 0.2]]])
        pmf = JointPMF(schema, mass)
        spec = DiscriminationSpec(
            mode="target", target=np.array([0.7, 0.3]), epsilon=0.1
        )
        problem = assemble(
            pmf, spec, movement_metric(schema),
            DistortionBudget("expected", c=1.0), "l1",
        )
        sol = sof_solve(problem, strategy="alternating", max_outer=25)
        assert sol.status == "optimal"
        assert sol.residual <= 1e-6

    def test_kl_infinite_on_feasible_set_is_a_status(self):
        # the full KL program is infinite everywhere feasible, and so is
        # the factorized one once a jointly feasible start is found
        pmf, spec, metric, budget = random_instance(INFINITE_SEED)
        problem = assemble(pmf, spec, metric, budget, "kl")
        sol = sof_solve(problem, strategy="alternating")
        assert sol.status == "infinite_objective"
        assert sol.objective == float("inf")
        assert sol.diagnostics["uncovered_cell"] == "x=x0 y=1"
        assert sol.residual <= 1e-9

    def test_rounding_residue_in_a_factor_is_no_breakdown(self):
        # a w-block program here carries constraint entries below 1e-9,
        # rounding residue of the m factor; HiGHS drops such entries, and
        # its warning that it did once aborted the solve
        problem = assemble(*sof_instance(np.random.default_rng(0), eps=0.1, c=0.6, nx=4),
                           objective="kl")
        sol = sof_solve(problem, strategy="alternating")
        assert sol.status == "optimal" and sol.certificate <= 1e-6
        TransformKernel(problem.pmf.schema, sol.kernel.probs)
        assert sol.residual <= 1e-9


def raise_forbidden_metric(schema):
    """Feature moves cost 1, lowering the outcome 1; raising it is
    forbidden."""
    return movement_metric(schema, y_costs=(1e4, 1.0))


class TestPins:
    @pytest.mark.parametrize("objective", ["l1", "kl"])
    def test_pin_violation_is_probability_mass(self, objective):
        # one feature value: the pinned conditional sends half of every
        # y=0 row to the forbidden raise, so each such row's pin is
        # violated by exactly 0.5 of probability mass
        schema = make_schema(nx=1)
        pmf = JointPMF(schema, np.array([[[0.2, 0.3]], [[0.3, 0.2]]]))
        problem = assemble(
            pmf, DiscriminationSpec(mode="target", epsilon=0.5),
            raise_forbidden_metric(schema), DistortionBudget("expected", c=1.0),
            objective,
        )
        sol = sof_solve(problem, strategy="fix_conditional")
        assert sol.status == "infeasible"
        assert sol.diagnostics["worst_constraint"] == "pin d=g0 x=x0 y=0"
        assert sol.diagnostics["worst_violation"] == pytest.approx(0.5, abs=1e-9)
        assert sol.certificate <= 2.0

    def test_optimum_keeps_forbidden_entries_at_zero(self):
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, np.random.default_rng(0))
        metric = raise_forbidden_metric(schema)
        budget = DistortionBudget("expected", c=1.5)
        problem = assemble(
            pmf, DiscriminationSpec(mode="target", epsilon=0.5), metric, budget, "l1",
        )
        sol = sof_solve(problem, strategy="alternating", max_outer=25)
        assert sol.status == "optimal"
        layout = problem.layout
        pinned = np.ones(layout.n_vars, dtype=bool)
        pinned[problem.free] = False
        assert pinned.any()
        entries = sol.kernel.probs[layout.d, layout.x, layout.y].ravel()
        assert entries[pinned].max() <= 1e-9
        assert factorization_residual(sol, schema) <= 1e-12
