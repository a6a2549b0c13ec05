"""Solver tests: oracle equivalence, feasibility contracts, sweeps."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, linprog, minimize

from fairmap import (
    DiscriminationSpec,
    DistortionBudget,
    DistortionMetric,
    JointPMF,
    TransformKernel,
    assemble,
    identity_kernel,
    solve,
    sweep_epsilon,
)
from conftest import (
    ToyInstance,
    grid_search_oracle,
    make_schema,
    make_toy_instance,
    random_pmf,
)
from fairmap.constants import FORBIDDEN, ROW_ATOL, TIE_BREAK_WEIGHT
from fairmap.constraints import VariableLayout
from fairmap.errors import InvalidParamsError
from fairmap.presets import preset_config
from fairmap.solver import phase1_violation, solve_tv
from test_constraints import full_layout_rows
from test_properties import random_instance


def two_group_pmf(p_d0=0.5, rate0=0.8, rate1=0.2):
    schema = make_schema(nx=1)
    mass = np.array(
        [
            [[p_d0 * (1 - rate0), p_d0 * rate0]],
            [[(1 - p_d0) * (1 - rate1), (1 - p_d0) * rate1]],
        ]
    )
    return JointPMF(schema, mass / mass.sum())


def flip_metric(cost01=1.0, cost10=1.0):
    return DistortionMetric(
        "per_attribute",
        x_tables=(np.zeros((1, 1)),),
        y_table=np.array([[0.0, cost01], [cost10, 0.0]]),
        combiner="sum",
    )


def forbidden_instance(seed):
    """Two or three groups, one to three feature values, some input cells
    at zero mass; a random share of the feature moves and outcome flips
    cost the forbidden level, and a few cells have budgets that reach it."""
    rng = np.random.default_rng(seed)
    nx, nd = int(rng.integers(1, 4)), int(rng.integers(2, 4))
    pmf = random_pmf(make_schema(nx=nx, nd=nd), rng, zero_fraction=0.2)
    x_table = rng.uniform(0.3, 2.0, (nx, nx))
    x_table[rng.random((nx, nx)) < 0.4] = FORBIDDEN
    y_table = rng.uniform(0.3, 2.0, (2, 2))
    y_table[rng.random((2, 2)) < 0.4] = FORBIDDEN
    np.fill_diagonal(x_table, 0.0)
    np.fill_diagonal(y_table, 0.0)
    metric = DistortionMetric("per_attribute", x_tables=(x_table,),
                              y_table=y_table, combiner="sum")
    c = rng.uniform(0.0, 1.5, (nd, nx, 2))
    c[rng.random(c.shape) < 0.1] = 2 * FORBIDDEN
    if rng.random() < 0.5:
        spec = DiscriminationSpec(mode="pairwise", epsilon=float(rng.uniform(0.05, 0.6)))
    else:
        p1 = float(rng.uniform(0.2, 0.8))
        spec = DiscriminationSpec(mode="target", target=np.array([1.0 - p1, p1]),
                                  epsilon=float(rng.uniform(0.05, 0.6)))
    return pmf, spec, metric, DistortionBudget("expected", c=c)


class BoundedReference:
    """The kernel program with every layout entry a variable: the pinned
    ones are bounded by 0 instead of left out.  Built here from the
    full-layout rows alone and solved with ``linprog`` directly."""

    def __init__(self, pmf, spec, metric, budget):
        layout = VariableLayout.from_pmf(pmf)
        merged, self.pinned = full_layout_rows(pmf, spec, metric, budget, layout)
        self.G, self.h = merged.G, merged.h
        self.ub = np.where(self.pinned, 0.0, 1.0)
        self.A = sp.kron(layout.weights.reshape(1, -1),
                         sp.identity(layout.row_dim), format="csr")
        self.rows = sp.kron(sp.identity(layout.n_rows),
                            np.ones((1, layout.row_dim)), format="csr")
        self.anchor = np.eye(layout.row_dim)[
            layout.x * layout.schema.ny + layout.y].ravel()
        self.p = pmf.p_xy().ravel()

    def _solve(self, c_k, c_aux, rows):
        n_aux = len(c_aux)
        res = linprog(
            np.concatenate([c_k, c_aux]),
            A_ub=sp.vstack([r for r, _ in rows], format="csr"),
            b_ub=np.concatenate([b for _, b in rows]),
            A_eq=sp.hstack([self.rows, sp.csr_matrix((self.rows.shape[0], n_aux))]),
            b_eq=np.ones(self.rows.shape[0]),
            bounds=[(0.0, u) for u in self.ub] + [(0.0, None)] * n_aux,
            method="highs",
            options={"primal_feasibility_tolerance": 1e-10,
                     "dual_feasibility_tolerance": 1e-10},
        )
        assert res.status in (0, 2), res.message
        return res

    def l1_objective(self):
        """min |p - A k|_1 (with the tie-break), or NaN if infeasible."""
        m, n_img = self.h.size, self.p.size
        eye = sp.identity(n_img, format="csr")
        res = self._solve(
            -TIE_BREAK_WEIGHT * self.anchor, np.ones(n_img),
            [(sp.hstack([self.G, sp.csr_matrix((m, n_img))]), self.h),
             (sp.hstack([-self.A, -eye]), -self.p),
             (sp.hstack([self.A, -eye]), self.p)],
        )
        if res.status == 2:
            return float("nan")
        return float(np.abs(self.p - self.A @ res.x[: self.ub.size]).sum())

    def phase1(self):
        """Minimum total violation of G k <= h."""
        m = self.h.size
        res = self._solve(np.zeros(self.ub.size), np.ones(m),
                          [(sp.hstack([self.G, -sp.identity(m)]), self.h)])
        return float(res.fun)


class TestAssembly:
    def test_variable_count(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng)
        problem = assemble(pmf, DiscriminationSpec(epsilon=0.1))
        assert problem.n_vars == 32  # 8 rows x 4 entries

    def test_identity_objective_is_zero(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng)
        problem = assemble(pmf, DiscriminationSpec(epsilon=0.1), objective="kl")
        assert problem.objective_value(identity_kernel(pmf.schema)) == 0.0

    def test_replacement_kernel_perfect_utility_and_parity(self, rng):
        # sampling fresh (x, y) from the original marginal gives zero
        # utility loss and exactly the target outcome rates
        pmf = random_pmf(make_schema(nx=2), rng)
        problem = assemble(pmf, DiscriminationSpec(mode="target", epsilon=0.0))
        schema = pmf.schema
        row = pmf.p_xy().ravel()
        kern = TransformKernel(
            schema, np.broadcast_to(row, (schema.nd, schema.nx, schema.ny, row.size)))
        assert problem.objective_value(kern) <= 1e-15
        assert problem.program.residual(problem.kernel_vec(kern)) <= 1e-12


class TestToyTwoGroup:
    def test_textbook_two_group_instance_matches_grid(self):
        # equal groups, rates 0.8 / 0.2, target = outcome marginal
        # (0.5, 0.5), eps = 0.1, unit flip costs, budget 1 on the rows
        # that lower the high rate / raise the low one; the optimum
        # rebalances to zero utility loss.
        pmf = two_group_pmf()
        cgrid = np.zeros((2, 1, 2))
        cgrid[0, 0, 1] = 1.0
        cgrid[1, 0, 0] = 1.0
        inst = ToyInstance(
            pmf,
            DiscriminationSpec(mode="target", epsilon=0.1),
            flip_metric(),
            DistortionBudget("expected", c=cgrid),
        )
        oracle = grid_search_oracle(inst, "l1")
        problem = assemble(
            inst.pmf, inst.spec, inst.metric, inst.budget, objective="l1"
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(oracle, abs=1e-3)
        assert oracle == pytest.approx(0.0, abs=1e-6)  # frozen: rebalance is free

    def test_drops_only_pairwise_gives_positive_optimum(self):
        # outcome may only be lowered (zero budget on the y=0 rows), so
        # equalizing the groups pulls the joint away from the original:
        # optimal rate_a = 1.15 * 0.2 = 0.23 and the l1 loss is
        # 2 * (0.62 - (0.7 * 0.23 + 0.3 * 0.2)) = 0.798
        pmf = two_group_pmf(p_d0=0.7)
        cgrid = np.zeros((2, 1, 2))
        cgrid[0, 0, 1] = 1.0
        cgrid[1, 0, 1] = 1.0
        inst = ToyInstance(
            pmf,
            DiscriminationSpec(mode="pairwise", epsilon=0.15),
            flip_metric(),
            DistortionBudget("expected", c=cgrid),
        )
        oracle = grid_search_oracle(inst, "l1")
        assert oracle == pytest.approx(0.798, abs=2e-3)
        sol = solve(assemble(inst.pmf, inst.spec, inst.metric, inst.budget, "l1"))
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.798, abs=1e-6)
        assert sol.objective == pytest.approx(oracle, abs=1e-3)


class TestOracleEquivalence:
    @pytest.mark.parametrize("flavor", ["flip", "move"])
    @pytest.mark.parametrize("objective", ["l1", "kl"])
    def test_random_instances_match_grid(self, flavor, objective):
        import zlib

        rng = np.random.default_rng(zlib.crc32(f"{flavor}/{objective}".encode()))
        compared = 0
        attempts = 0
        while compared < 6 and attempts < 30:
            attempts += 1
            inst = make_toy_instance(rng, flavor)
            problem = assemble(
                inst.pmf, inst.spec, inst.metric, inst.budget, objective
            )
            tol = 1e-8
            sol = solve(problem, tol=tol)
            oracle = grid_search_oracle(inst, objective)
            if sol.status == "infeasible":
                assert not np.isfinite(oracle)
                continue
            if not np.isfinite(oracle):
                # a feasible sliver the coarse grid cannot see; skip
                assert sol.residual <= 1e-8
                continue
            assert sol.status == "optimal"
            assert sol.objective == pytest.approx(oracle, abs=1e-3)
            if objective == "kl":
                # the reported bound holds against the grid's feasible
                # point, and the objective is certified within tol of it
                lower = sol.diagnostics["lower_bound"]
                assert lower <= oracle + TIE_BREAK_WEIGHT * problem.program.n_rows
                assert sol.objective <= lower + tol
            compared += 1
        assert compared >= 5


class TestConvexReferenceCrossCheck:
    def test_kl_against_generic_conic_solver(self):
        # optional second reference beyond the grid oracle: a generic
        # conic solver on the identical polytope and objective
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(12):
            nx = int(rng.integers(2, 5))
            nd = int(rng.integers(2, 4))
            pmf = random_pmf(make_schema(nx=nx, nd=nd), rng, zero_fraction=0.1)
            xt = rng.uniform(0.3, 2.0, (nx, nx))
            np.fill_diagonal(xt, 0)
            metric = DistortionMetric(
                "per_attribute", x_tables=(xt,),
                y_table=np.array([[0, 1e4], [rng.uniform(0.5, 1.5), 0]]),
                combiner="sum",
            )
            spec = DiscriminationSpec(
                mode="pairwise", epsilon=float(rng.uniform(0.1, 0.4))
            )
            budget = DistortionBudget("expected", c=float(rng.uniform(0.5, 1.5)))
            problem = assemble(pmf, spec, metric, budget, "kl")
            sol = solve(problem, tol=1e-8)
            if sol.status != "optimal":
                continue
            P = problem.program
            k = cp.Variable(P.n_vars, nonneg=True)
            cons = [P.row_sum_matrix() @ k == 1]
            # pinned transitions are not variables, so need no constraint
            if P.h.size:
                cons.append(P.G @ k <= P.h)
            sup = np.nonzero(P.p_ref > 0)[0]
            q = P.A @ k
            ref = cp.Problem(
                cp.Minimize(cp.sum(cp.rel_entr(P.p_ref[sup], q[sup]))), cons
            )
            try:
                ref.solve(solver=cp.CLARABEL)
            except cp.error.SolverError:
                ref.solve()
            assert abs(sol.objective - ref.value) <= 2e-6
            checked += 1
        assert checked >= 6


def _slsqp_kl(P):
    """KL optimum of a program by scipy's SLSQP: the analytic gradient of
    sum p log(p / A k), dense simplex rows and G k <= h, bounds [0, 1]."""
    sup = np.nonzero(P.p_ref > 0)[0]
    p, A = P.p_ref[sup], P.A[sup].toarray()

    def kl(k):
        q = A @ k
        return float(p @ np.log(p / q)), -A.T @ (p / q)

    cons = [LinearConstraint(P.row_sum_matrix().toarray(), 1.0, 1.0)]
    if P.h.size:
        cons.append(LinearConstraint(P.G.toarray(), -np.inf, P.h))
    lengths = np.diff(P.row_ptr)
    res = minimize(kl, np.repeat(1.0 / lengths, lengths), jac=True, method="SLSQP",
                   bounds=Bounds(0.0, 1.0), constraints=cons,
                   options={"ftol": 1e-14, "maxiter": 1000})
    assert res.success and P.residual(res.x) <= 1e-9
    return res.fun


class TestSLSQPReferenceCrossCheck:
    def test_kl_against_slsqp(self):
        # the instances of TestConvexReferenceCrossCheck, with a reference
        # that needs nothing beyond scipy
        rng = np.random.default_rng(123)
        checked = 0
        for _ in range(12):
            nx = int(rng.integers(2, 5))
            nd = int(rng.integers(2, 4))
            pmf = random_pmf(make_schema(nx=nx, nd=nd), rng, zero_fraction=0.1)
            xt = rng.uniform(0.3, 2.0, (nx, nx))
            np.fill_diagonal(xt, 0)
            metric = DistortionMetric(
                "per_attribute", x_tables=(xt,),
                y_table=np.array([[0, 1e4], [rng.uniform(0.5, 1.5), 0]]),
                combiner="sum",
            )
            spec = DiscriminationSpec(
                mode="pairwise", epsilon=float(rng.uniform(0.1, 0.4))
            )
            budget = DistortionBudget("expected", c=float(rng.uniform(0.5, 1.5)))
            problem = assemble(pmf, spec, metric, budget, "kl")
            sol = solve(problem, tol=1e-8)
            if sol.status != "optimal":
                continue
            assert abs(sol.objective - _slsqp_kl(problem.program)) <= 2e-6
            checked += 1
        assert checked >= 6


class TestSolveContracts:
    @pytest.mark.parametrize("objective", ["l1", "kl"])
    @pytest.mark.parametrize("name,value", [("tol", float("nan")), ("tol", 0.0),
                                            ("max_iters", -5), ("max_iters", float("nan"))])
    def test_bad_limits_refused(self, objective, name, value):
        # 0 stays a valid cap (see test_l1_iteration_limit)
        problem = assemble(*random_instance(1), objective=objective)
        with pytest.raises(InvalidParamsError, match=name):
            solve(problem, **{name: value})

    def test_loose_epsilon_identity_optimal(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng)
        problem = assemble(
            pmf,
            DiscriminationSpec(mode="target", epsilon=50.0),
            DistortionMetric(
                "per_attribute",
                x_tables=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
                y_table=np.array([[0.0, 1.0], [1.0, 0.0]]),
            ),
            DistortionBudget("expected", c=2.0),
            objective="l1",
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective <= 1e-9
        # the tie-break picks the identity among the zero-loss optima
        ident = identity_kernel(pmf.schema)
        np.testing.assert_allclose(sol.kernel.probs, ident.probs, atol=1e-7)

    def test_optimal_solutions_satisfy_constraints(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            inst = make_toy_instance(rng, "flip" if rng.random() < 0.5 else "move")
            for objective in ("l1", "kl"):
                sol = solve(
                    assemble(inst.pmf, inst.spec, inst.metric, inst.budget, objective)
                )
                if sol.status == "optimal":
                    assert sol.residual <= 1e-6
                    assert sol.certificate <= 1e-6

    def test_deterministic_bit_identical(self, rng):
        inst = make_toy_instance(rng, "flip")
        while solve(assemble(inst.pmf, inst.spec, inst.metric, inst.budget)).status != "optimal":
            inst = make_toy_instance(rng, "flip")
        for objective in ("l1", "kl"):
            problem = assemble(
                inst.pmf, inst.spec, inst.metric, inst.budget, objective
            )
            s1 = solve(problem)
            s2 = solve(problem)
            assert s1.objective == s2.objective
            assert s1.status == s2.status
            assert s1.kernel.probs.tobytes() == s2.kernel.probs.tobytes()

    def test_infeasible_certificate_and_diagnostics(self):
        pmf = two_group_pmf()
        problem = assemble(
            pmf,
            DiscriminationSpec(mode="target", epsilon=0.1),
            flip_metric(),
            DistortionBudget("expected", c=0.0),
            objective="l1",
        )
        sol = solve(problem)
        assert sol.status == "infeasible"
        assert sol.certificate > 1e-6
        assert "worst_constraint" in sol.diagnostics
        assert np.isnan(sol.objective)
        # the certificate split by the units of its label families
        by_family = sol.diagnostics["violation_by_family"]
        assert set(by_family) == {"disc[target]", "dist[expected]"}
        assert sum(by_family.values()) == pytest.approx(sol.certificate, rel=1e-12)

    def test_kl_infeasible_matches_l1_infeasible(self):
        pmf = two_group_pmf()
        for objective in ("l1", "kl"):
            sol = solve(
                assemble(
                    pmf,
                    DiscriminationSpec(mode="target", epsilon=0.05),
                    flip_metric(),
                    DistortionBudget("expected", c=0.0),
                    objective,
                )
            )
            assert sol.status == "infeasible"

    def test_iteration_limit_status(self):
        # KL path with one cut LP cannot close the gap
        pmf = two_group_pmf(p_d0=0.6)
        problem = assemble(
            pmf,
            DiscriminationSpec(mode="target", epsilon=0.35),
            flip_metric(),
            DistortionBudget("expected", c=0.3),
            objective="kl",
        )
        sol = solve(problem, tol=1e-12, max_iters=1)
        assert sol.status == "iteration_limit"
        assert sol.residual <= 1e-8  # best iterate is still feasible

    def test_convexity_witness_midpoint(self, rng):
        pmf = random_pmf(make_schema(nx=1), rng)
        spec = DiscriminationSpec(mode="target", epsilon=0.4)
        problem = assemble(
            pmf, spec, flip_metric(), DistortionBudget("expected", c=0.5), "kl"
        )
        s1 = solve(problem.with_epsilon(0.4))
        s2 = solve(problem.with_epsilon(0.6))
        k1 = problem.kernel_vec(s1.kernel)
        k2 = problem.kernel_vec(s2.kernel)
        mid = problem.objective_value(0.5 * (k1 + k2))
        avg = 0.5 * (problem.objective_value(k1) + problem.objective_value(k2))
        assert mid <= avg + 1e-9

    def test_zero_coverage_breaks_kl(self):
        # forbid every route into a populated outcome cell: the KL
        # objective is infinite everywhere feasible
        schema = make_schema(nx=1)
        pmf = JointPMF(schema, np.array([[[0.2, 0.3]], [[0.1, 0.4]]]))
        metric = flip_metric(cost01=1e4, cost10=1.0)
        budget = DistortionBudget("expected", c=np.array(
            [[[5.0, 0.0]], [[5.0, 0.0]]]
        ))
        # y=1 rows pinned to identity would keep coverage; instead force
        # them to flip away by a pairwise constraint that identity breaks
        problem = assemble(
            pmf, None, metric,
            DistortionBudget("thresholded", pairs=((0.5, 0.0),)), "kl",
        )
        # with all movement forbidden the identity is the only point and
        # coverage holds; so this instance must solve fine
        sol = solve(problem)
        assert sol.status == "optimal"


class TestLPBuilder:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    @example(0)  # infeasible, 40 of 90 entries pinned
    @example(1)  # optimal, 17 of 44 entries pinned
    def test_pinned_entries_match_bounded_formulation(self, seed):
        # pinned transitions are not program variables; the reference
        # keeps every layout entry a variable and bounds the pinned ones
        # by 0, and both must reach the same status, l1 optimum and
        # phase-1 certificate, with every pinned entry exactly 0
        pmf, spec, metric, budget = forbidden_instance(seed)
        problem = assemble(pmf, spec, metric, budget, "l1")
        layout = problem.layout
        ref = BoundedReference(pmf, spec, metric, budget)
        l1 = solve(problem)
        ref_objective = ref.l1_objective()
        if l1.status == "optimal":
            assert l1.objective == pytest.approx(ref_objective, abs=1e-9)
        else:
            assert l1.status == "infeasible" and np.isnan(ref_objective)
            assert l1.certificate == pytest.approx(ref.phase1(), abs=1e-9)
        kl = solve(assemble(pmf, spec, metric, budget, "kl"))
        if kl.status == "infinite_objective":
            assert l1.status == "optimal"  # KL infinite on a feasible set
        else:
            assert kl.status == l1.status
        kernels = [l1.kernel, kl.kernel]
        for kernel in kernels:
            entries = kernel.probs[layout.d, layout.x, layout.y].ravel()
            assert (entries[ref.pinned] == 0.0).all()

    def test_program_without_side_constraints(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng)
        for objective in ("l1", "kl"):
            problem = assemble(pmf, None, objective=objective)
            assert problem.program.h.size == 0
            sol = solve(problem)
            assert sol.status == "optimal"
            assert sol.objective <= 1e-6
            assert sol.residual <= 1e-9
        violation, kvec, diag = phase1_violation(problem.program)
        assert violation == 0.0
        assert diag == {}
        assert problem.program.residual(kvec) <= 1e-9

    def test_l1_certificate_without_duals_uses_zero_multipliers(self, monkeypatch):
        # the Lagrangian bound at zero multipliers is 0, so the certificate
        # is the objective with its tie-break term: finite, with no note
        import fairmap.solver as solver

        class WithoutDuals(solver._highs._Highs):
            def getSolution(self):
                sol = super().getSolution()
                sol.dual_valid = False
                return sol

        monkeypatch.setattr(solver._highs, "_Highs", WithoutDuals)
        prog = assemble(two_group_pmf(), DiscriminationSpec(epsilon=0.5), objective="l1").program
        out = solve_tv(prog)
        assert out.status == "optimal"
        assert out.certificate == out.objective + prog.tie_term(out.kvec)
        assert np.isfinite(out.certificate) and out.diagnostics == {}

    @staticmethod
    def two_group_l1():
        return assemble(two_group_pmf(p_d0=0.6), DiscriminationSpec(mode="target", epsilon=0.35),
                        flip_metric(), DistortionBudget("expected", c=0.3), objective="l1")

    @pytest.mark.parametrize("seed,max_iters", [(None, 0), (None, 2), (10, 3), (13, 1)])
    def test_l1_iteration_limit(self, monkeypatch, seed, max_iters):
        # the two-group LP needs 3 simplex iterations, and stopped short
        # HiGHS holds no primal; stopped after 3, random instance 10 holds
        # one that misses its simplex rows by 1.0; instance 13 is
        # infeasible, which the stopped LP has not found out
        import fairmap.solver as solver

        runs = []
        run = solver._LPModel.run

        def recorded(model, *args, **kwargs):
            runs.append(run(model, *args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(solver._LPModel, "run", recorded)
        if seed is None:
            problem = self.two_group_l1()
        else:
            problem = assemble(*random_instance(seed), objective="l1")
        out = solve_tv(problem.program, max_iters=max_iters)
        # the stopped l1 LP, then phase 1
        assert [lp.status for lp in runs] == ["iteration_limit", "optimal"]
        assert out.iterations == max_iters and np.isnan(out.objective)
        assert np.isfinite(out.residual)
        violation, kvec, _ = phase1_violation(problem.program)
        assert out.residual == problem.program.residual(kvec)
        if seed == 13:
            assert out.status == "infeasible"
            assert out.certificate == violation > 1e-6
        else:
            assert out.status == "iteration_limit" and out.certificate == np.inf
            assert out.residual <= 1e-9

    @pytest.mark.parametrize("max_iters", [0, 1, 2])
    def test_l1_iteration_limit_through_solve(self, max_iters):
        # the stopped LP's primal once reached the kernel, which refused
        # it ("kernel rows must sum to 1")
        sol = solve(self.two_group_l1(), max_iters=max_iters)
        assert sol.status == "iteration_limit" and sol.certificate == np.inf
        assert sol.residual <= 1e-9


class TestSweep:
    GRID = [0.2, 0.4, 0.7, 1.2, 2.0, 3.2]

    @staticmethod
    def discriminatory(objective="l1"):
        # outcome drops only, high-rate group budget-capped at 0.6: the
        # pairwise gap cannot shrink below 0.32/0.2 - 1 = 0.6, and the
        # identity needs eps >= 0.8/0.2 - 1 = 3
        pmf = two_group_pmf(p_d0=0.7)
        cgrid = np.zeros((2, 1, 2))
        cgrid[0, 0, 1] = 0.6
        cgrid[1, 0, 1] = 1.0
        return assemble(
            pmf,
            DiscriminationSpec(mode="pairwise", epsilon=0.1),
            flip_metric(),
            DistortionBudget("expected", c=cgrid),
            objective=objective,
        )

    def test_sweep_shape_on_discriminatory_instance(self):
        problem = self.discriminatory()
        grid = self.GRID
        result = sweep_epsilon(problem, grid, tol=1e-6)
        statuses = [e.status for e in result.entries]
        assert statuses[:2] == ["infeasible", "infeasible"]
        assert statuses[2:] == ["optimal"] * 4
        assert result.infeasible_boundary == 0.4
        assert result.zero_boundary == 3.2
        assert result.monotone_nonincreasing
        # objective strictly positive in the pinched middle
        mids = [e.objective for e in result.entries[2:5]]
        assert all(o > 1e-4 for o in mids)
        assert mids == sorted(mids, reverse=True)

    @pytest.mark.parametrize("objective", ["l1", "kl"])
    def test_infeasible_points_warm_start_phase_1(self, monkeypatch, objective):
        # the points are solved from the loosest down, so the infeasible
        # ones come last and each phase-1 LP after the first starts from
        # the basis of the one before; each must still certify what a
        # cold solve certifies
        import fairmap.optimizer as optimizer
        import fairmap.solver as solver

        problem = self.discriminatory(objective)
        lps, solved = [], []
        run, solve_at = solver._LPModel.run, optimizer.solve

        def recorded_run(model, *args, **kwargs):
            out = run(model, *args, **kwargs)
            lps.append((model.name, out.iterations))
            return out

        def recorded_solve(at, *args, **kwargs):
            solved.append((at.disc_spec.epsilon, solve_at(at, *args, **kwargs)))
            return solved[-1][1]

        monkeypatch.setattr(solver._LPModel, "run", recorded_run)
        monkeypatch.setattr(optimizer, "solve", recorded_solve)
        result = sweep_epsilon(problem, self.GRID, tol=1e-6)
        assert [eps for eps, _ in solved] == self.GRID[::-1]
        warm = [it for name, it in lps if name == "phase-1 LP"]
        infeasible = [(eps, sol) for eps, sol in solved if sol.status == "infeasible"]
        assert [eps for eps, _ in infeasible] == [0.4, 0.2] and len(warm) == 2
        for i, (eps, sol) in enumerate(infeasible):
            lps.clear()
            cold = solve(problem.with_epsilon(eps), tol=1e-6)  # the unwrapped solve
            [cold_iters] = [it for name, it in lps if name == "phase-1 LP"]
            if i > 0:
                assert warm[i] < cold_iters or warm[i] == cold_iters == 0
            assert sol.status == cold.status
            assert sol.certificate == pytest.approx(cold.certificate, abs=1e-9)
        assert [e.status for e in result.entries] == [s.status for _, s in solved[::-1]]

    @pytest.mark.parametrize("grid", [[0.2, float("nan")], [-0.1, 0.5], [0.2, float("inf")]])
    def test_whole_grid_checked_before_the_first_solve(self, monkeypatch, grid):
        import fairmap.optimizer as optimizer

        calls = []
        monkeypatch.setattr(optimizer, "solve", lambda *a, **k: calls.append(a))
        with pytest.raises(InvalidParamsError, match="epsilon"):
            sweep_epsilon(self.discriminatory(), grid)
        assert calls == []

    def test_warm_l1_sweep_keeps_kernel_rows_on_adult_preset(self):
        # every point after the first starts the l1 LP from the basis the
        # point before left, under HiGHS's default scaling; its primal is
        # the kernel, whose rows must still sum to 1 within ROW_ATOL
        cfg = preset_config("adult")
        pmf = random_pmf(cfg.schema, np.random.default_rng(0), zero_fraction=0.5)
        problem = assemble(pmf, cfg.discrimination, cfg.metric, cfg.budget, "l1")
        bases = {}
        for eps in (0.05, 0.10, 0.15, 0.20):
            at = problem.with_epsilon(eps)
            sol = solve(at, bases=bases)
            assert sol.status == "optimal" and "l1 LP" in bases
            assert at.program.residual(at.kernel_vec(sol.kernel)) <= ROW_ATOL

    def test_sweep_all_zero_when_loose(self, rng):
        pmf = random_pmf(make_schema(nx=1), rng)
        problem = assemble(
            pmf,
            DiscriminationSpec(mode="target", epsilon=1.0),
            flip_metric(),
            DistortionBudget("expected", c=1.0),
            objective="l1",
        )
        result = sweep_epsilon(problem, [3.0, 4.0, 5.0])
        assert all(e.status == "optimal" for e in result.entries)
        assert all(e.objective <= 1e-9 for e in result.entries)

    def test_unsorted_grid_rejected(self, rng):
        pmf = random_pmf(make_schema(nx=1), rng)
        problem = assemble(pmf, DiscriminationSpec(epsilon=0.1))
        with pytest.raises(Exception):
            sweep_epsilon(problem, [0.3, 0.1])
