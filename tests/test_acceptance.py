"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL/SKIP`` line that
bypasses output capture, so a plain ``pytest tests/test_acceptance.py``
shows the checklist.  Criteria 6 and 7 need the user-fetched COMPAS /
census files (see README) and skip when the files are absent.
"""

import functools
import os
import time

import numpy as np
import pytest

import conftest

from fairmap import (
    Dataset,
    DiscriminationSpec,
    DistortionBudget,
    DistortionMetric,
    JointPMF,
    assemble,
    audit_discrimination,
    estimate_empirical,
    identity_kernel,
    map_advantage,
    pushforward_xy,
    robustness_bounds,
    sof_solve,
    solve,
    sweep_epsilon,
    transform_train,
)
from fairmap.dataio import read_dataset, write_dataset
from fairmap.presets import preset_config

from conftest import grid_search_oracle, make_schema, make_toy_instance, random_pmf

COMPAS_PATH = os.environ.get(
    "FAIRMAP_COMPAS_CSV", os.path.join("data", "compas-scores-two-years.csv")
)
ADULT_PATH = os.environ.get("FAIRMAP_ADULT_DATA", os.path.join("data", "adult.data"))


def criterion(num, text):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            def emit(outcome):
                line = f"ACCEPTANCE {num}: {outcome} - {text}"
                conftest.ACCEPTANCE_LINES.append((num, line))
                print(line)

            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                emit(f"SKIP ({exc})")
                raise
            except BaseException:
                emit("FAIL")
                raise
            emit("PASS")

        return wrapper

    return deco


def movement_metric(schema, x_cost=1.0, y01=1.0, y10=1.0):
    tables = []
    for var in schema.x_vars:
        k = len(var.alphabet)
        t = np.full((k, k), x_cost)
        np.fill_diagonal(t, 0.0)
        tables.append(t)
    return DistortionMetric(
        "per_attribute",
        x_tables=tuple(tables),
        y_table=np.array([[0.0, y01], [y10, 0.0]]),
        combiner="sum",
    )


@criterion(1, "L1 optimum matches exhaustive grid search (50 instances, 1e-3)")
def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(11)
    compared = 0
    draws = 0
    while compared < 50:
        draws += 1
        assert draws < 400, "instance generation ran away"
        flavor = "flip" if draws % 2 == 0 else "move"
        inst = make_toy_instance(rng, flavor)
        problem = assemble(inst.pmf, inst.spec, inst.metric, inst.budget, "l1")
        sol = solve(problem, tol=1e-8)
        oracle = grid_search_oracle(inst, "l1", step=1e-3)
        if sol.status == "infeasible":
            assert not np.isfinite(oracle)
            continue
        if not np.isfinite(oracle):
            assert sol.residual <= 1e-8  # sliver invisible at the grid step
            continue
        assert sol.status == "optimal"
        assert abs(sol.objective - oracle) <= 1e-3
        compared += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"


@criterion(2, "optimal solutions have analytic constraint residual <= 1e-6")
def test_criterion_2_constraint_satisfaction():
    rng = np.random.default_rng(23)
    checked = 0
    for trial in range(40):
        inst = make_toy_instance(rng, "flip" if trial % 2 else "move")
        objective = "kl" if trial % 3 == 0 else "l1"
        problem = assemble(inst.pmf, inst.spec, inst.metric, inst.budget, objective)
        sol = solve(problem)
        if sol.status != "optimal":
            continue
        # audited from the returned kernel through the pushforward algebra
        assert problem.program.residual(problem.kernel_vec(sol.kernel)) <= 1e-6
        assert sol.residual <= 1e-6
        checked += 1
    assert checked >= 20


@criterion(3, "zero distortion budget recovers the identity kernel (20 instances)")
def test_criterion_3_degenerate_budget():
    rng = np.random.default_rng(37)
    done = 0
    while done < 20:
        nx = int(rng.integers(1, 3))
        pmf = random_pmf(make_schema(nx=nx), rng)
        metric = movement_metric(
            pmf.schema,
            x_cost=float(rng.uniform(0.5, 2.0)),
            y01=float(rng.uniform(0.5, 2.0)),
            y10=float(rng.uniform(0.5, 2.0)),
        )
        spec_probe = DiscriminationSpec(mode="target", epsilon=0.0)
        before = audit_discrimination(pmf, spec_probe)
        eps = max(before.per_group.values()) + 0.05
        spec = DiscriminationSpec(mode="target", epsilon=eps)
        objective = "kl" if done % 2 else "l1"
        problem = assemble(
            pmf, spec, metric, DistortionBudget("expected", c=0.0), objective
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        ident = identity_kernel(pmf.schema)
        np.testing.assert_allclose(sol.kernel.probs, ident.probs, atol=1e-9)
        # identity kernel has zero divergence, so the objectives coincide
        assert abs(sol.objective - problem.objective_value(ident)) <= 1e-9
        assert sol.objective <= 1e-9
        done += 1


@criterion(4, "no distortion constraints + marginal target: objective and J <= 1e-6")
def test_criterion_4_random_replacement_limit():
    rng = np.random.default_rng(41)
    for trial in range(10):
        nx = int(rng.integers(1, 3))
        pmf = random_pmf(make_schema(nx=nx), rng)
        spec = DiscriminationSpec(mode="target", epsilon=0.0)  # target = p_Y
        objective = "kl" if trial % 2 else "l1"
        problem = assemble(pmf, spec, None, None, objective)
        sol = solve(problem, tol=1e-8)
        assert sol.status == "optimal"
        assert sol.objective <= 1e-6
        rep = audit_discrimination(pmf, spec, kernel=sol.kernel)
        assert rep.max_j <= 1e-6


@criterion(5, "epsilon sweep: infeasible prefix, non-increasing, zero tail")
def test_criterion_5_sweep_structure():
    schema = make_schema(nx=1)
    mass = np.array([[[0.7 * 0.2, 0.7 * 0.8]], [[0.3 * 0.8, 0.3 * 0.2]]])
    pmf = JointPMF(schema, mass / mass.sum())
    cgrid = np.zeros((2, 1, 2))
    cgrid[0, 0, 1] = 0.6
    cgrid[1, 0, 1] = 1.0
    problem = assemble(
        pmf,
        DiscriminationSpec(mode="pairwise", epsilon=0.1),
        movement_metric(schema),
        DistortionBudget("expected", c=cgrid),
        objective="l1",
    )
    before = audit_discrimination(pmf, DiscriminationSpec(mode="pairwise", epsilon=0))
    max_data_j = max(before.pairwise.values())
    grid = [0.2, 0.4, 0.7, 1.2, 2.0, float(max_data_j) + 0.2]
    result = sweep_epsilon(problem, grid, tol=1e-6)
    statuses = [e.status for e in result.entries]
    assert statuses[0] == "infeasible", "expected a nonempty infeasible prefix"
    assert result.monotone_nonincreasing
    tail = [e for e in result.entries if e.epsilon >= max_data_j]
    assert tail and all(e.objective <= 1e-6 for e in tail)
    mids = [e for e in result.entries if e.status == "optimal"][:-1]
    assert all(e.objective > 1e-6 for e in mids)


@criterion(6, "COMPAS reproduction (user-fetched data; stated paper values)")
def test_criterion_6_compas_reproduction():
    if not os.path.exists(COMPAS_PATH):
        pytest.skip(f"no COMPAS data at {COMPAS_PATH}")
    t0 = time.time()
    cfg = preset_config("compas", input_path=COMPAS_PATH)
    dataset = read_dataset(
        COMPAS_PATH, cfg.schema, delimiter=cfg.delimiter,
        has_header=cfg.has_header, columns=cfg.columns, filters=cfg.filters,
    )
    assert 4500 <= len(dataset) <= 6500, "expected around 5k records"
    pmf = estimate_empirical(dataset)
    spec = cfg.discrimination
    before = audit_discrimination(pmf, spec)
    label = {cfg.schema.d_label(d): d for d in range(cfg.schema.nd)}
    maa = label["Male|African-American"]
    mc = label["Male|Caucasian"]
    faa = label["Female|African-American"]
    fc = label["Female|Caucasian"]
    assert before.rates[maa, 1] == pytest.approx(0.593, abs=0.01)
    problem = assemble(pmf, spec, cfg.metric, cfg.budget, cfg.objective)
    sol = solve(problem, tol=cfg.solver.tol)
    assert sol.status == "optimal", (
        "stated configuration did not admit a transform: "
        f"{sol.diagnostics.get('worst_constraint')}"
    )
    assert sol.objective == pytest.approx(0.021, abs=0.005)
    after = audit_discrimination(pmf, spec, kernel=sol.kernel)
    assert after.rates[maa, 1] == pytest.approx(0.404, abs=0.01)
    assert after.rates[mc, 1] == pytest.approx(0.404, abs=0.01)
    for d in (faa, fc):
        assert after.rates[d, 1] == pytest.approx(before.rates[d, 1], abs=0.01)
    # objective-vs-epsilon boundaries at the tighter budget
    problem25 = assemble(
        pmf, spec, cfg.metric, DistortionBudget("expected", c=0.25), cfg.objective
    )
    grid = [0.15, 0.2, 0.25, 0.54, 0.59, 0.64]
    result = sweep_epsilon(problem25, grid, tol=1e-6)
    assert result.infeasible_boundary is not None
    assert abs(result.infeasible_boundary - 0.2) <= 0.05
    assert result.zero_boundary is not None
    assert abs(result.zero_boundary - 0.59) <= 0.05
    assert time.time() - t0 < 600.0


@criterion(7, "census-income reproduction (user-fetched data; stated value)")
def test_criterion_7_adult_reproduction():
    if not os.path.exists(ADULT_PATH):
        pytest.skip(f"no census data at {ADULT_PATH}")
    cfg = preset_config("adult", input_path=ADULT_PATH)
    dataset = read_dataset(
        ADULT_PATH, cfg.schema, delimiter=cfg.delimiter,
        has_header=cfg.has_header, columns=cfg.columns, filters=cfg.filters,
    )
    pmf = estimate_empirical(dataset)
    problem = assemble(pmf, cfg.discrimination, cfg.metric, cfg.budget, "l1")
    sol = solve(problem, tol=cfg.solver.tol)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(0.014, abs=0.005)


@criterion(8, "advantage bound holds on 1e4 random joints; MAP matches enumeration")
def test_criterion_8_estimation_discrimination():
    rng = np.random.default_rng(53)
    violations = 0
    for _ in range(10_000):
        nd = int(rng.integers(2, 7))  # support size nd * 2 <= 12
        joint = rng.dirichlet(np.ones(nd * 2)).reshape(nd, 2)
        p_d = joint.sum(axis=1)
        target = joint.sum(axis=0)
        if target.min() <= 1e-12 or p_d.min() <= 1e-12:
            continue
        rates = joint / p_d[:, None]
        max_j = float(np.abs(rates / target[None, :] - 1.0).max())
        rep = map_advantage(joint)
        # exhaustive deterministic estimators outcome -> group
        brute = max(
            joint[d0, 0] + joint[d1, 1]
            for d0 in range(nd)
            for d1 in range(nd)
        )
        assert rep.map_probability == pytest.approx(brute, abs=1e-12)
        if rep.advantage > 1.0 + max_j + 1e-9:
            violations += 1
    assert violations == 0


@criterion(9, "finite-sample drift bound holds in >= 95% of 200 refit trials per n")
def test_criterion_9_robustness_empirical():
    t0 = time.time()
    schema = make_schema(nx=2)
    # fixed ground truth on the 8-cell support, moderately discriminatory
    q_mass = np.array(
        [[[0.10, 0.14], [0.12, 0.14]], [[0.16, 0.10], [0.14, 0.10]]]
    )
    q = JointPMF(schema, q_mass / q_mass.sum())
    target = q.p_y()
    eps = 0.12
    spec = DiscriminationSpec(mode="target", target=target, epsilon=eps)
    metric = movement_metric(schema)
    budget = DistortionBudget("expected", c=1.0)
    m = 8
    beta = 0.05
    rng = np.random.default_rng(61)
    mean_bounds = {}
    for n in (1000, 10_000):
        violations = 0
        infeasible = 0
        bounds = []
        for _ in range(200):
            ridx = rng.choice(8, size=n, p=q.mass.ravel())
            d, x, y = np.unravel_index(ridx, (2, 2, 2))
            p_hat = estimate_empirical(Dataset(schema, d, x, y))
            problem = assemble(p_hat, spec, metric, budget, "l1")
            sol = solve(problem)
            if sol.status != "optimal":
                infeasible += 1
                continue
            # push the true distribution through the fitted kernel
            joint_q = np.einsum(
                "dxy,dxyj->dj", q.mass, sol.kernel.probs
            ).reshape(2, 2, 2).sum(axis=1)  # (d, y_hat)
            rates1 = joint_q[:, 1] / q.p_d()
            realized = max(
                max(abs(r / target[1] - 1.0) for r in rates1),
                max(abs((1 - r) / target[0] - 1.0) for r in rates1),
            )
            c_m = float(
                np.einsum("dxy,dxyj->dj", p_hat.mass, sol.kernel.probs)
                .reshape(2, 2, 2)
                .sum(axis=1)
                .min()
            )
            if c_m <= 0:
                infeasible += 1
                continue
            bound = robustness_bounds(
                n=n, beta=beta, m=m, c_m=c_m, epsilon=eps, mu=0.0
            ).eps_drift_exact
            bounds.append(bound)
            if realized > bound:
                violations += 1
        trials = 200 - infeasible
        assert infeasible <= 10, "instance design should stay feasible"
        assert violations <= beta * trials
        mean_bounds[n] = float(np.mean(bounds))
    assert mean_bounds[10_000] < mean_bounds[1000]
    assert time.time() - t0 < 900.0


@criterion(10, "sampled transform matches the analytic pushforward; seeded hashes agree")
def test_criterion_10_sampling_consistency(tmp_path):
    rng = np.random.default_rng(71)
    schema = make_schema(nx=2)
    pmf_gen = random_pmf(schema, rng)
    problem = assemble(
        pmf_gen,
        DiscriminationSpec(mode="target", epsilon=0.3),
        movement_metric(schema),
        DistortionBudget("expected", c=0.9),
        objective="l1",
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    n = 100_000
    ridx = rng.choice(8, size=n, p=pmf_gen.mass.ravel())
    d, x, y = np.unravel_index(ridx, (2, 2, 2))
    ds = Dataset(schema, d, x, y)
    out = transform_train(ds, sol.kernel, seed=2024)
    emp = np.zeros((2, 2))
    np.add.at(emp, (out.x, out.y), 1.0)
    emp /= emp.sum()
    analytic = pushforward_xy(estimate_empirical(ds), sol.kernel)
    assert np.abs(emp - analytic).sum() <= 0.02
    # identical seeds, identical bytes
    import hashlib

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(str(p1), transform_train(ds, sol.kernel, seed=7))
    write_dataset(str(p2), transform_train(ds, sol.kernel, seed=7))
    h1 = hashlib.sha256(p1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(p2.read_bytes()).hexdigest()
    assert h1 == h2


@criterion(11, "factorized solving: monotone alternation, divergence floor, exact product")
def test_criterion_11_sof_suite():
    rng = np.random.default_rng(83)
    done = 0
    draws = 0
    while done < 20:
        draws += 1
        assert draws < 120
        pmf = random_pmf(make_schema(nx=2), rng)
        eps = float(rng.uniform(0.35, 0.8))
        c = float(rng.uniform(1.2, 2.5))
        spec = DiscriminationSpec(mode="target", epsilon=eps)
        metric = movement_metric(pmf.schema)
        budget = DistortionBudget("expected", c=c)
        problem = assemble(pmf, spec, metric, budget, "l1")
        alt = sof_solve(problem, strategy="alternating", max_outer=30)
        if alt.status == "infeasible":
            continue
        trace = alt.diagnostics["objective_trace"]
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        fixed = sof_solve(problem, strategy="fix_conditional")
        for sol in (alt, fixed):
            if sol.status == "infeasible":
                continue
            assert sol.objective >= sol.diagnostics["f_divergence_lower_bound"] - 1e-12
            w = sol.diagnostics["sof_y_given_xhat"]
            m = sol.diagnostics["sof_xhat_given_dxy"]
            row = 0
            for dd in range(pmf.schema.nd):
                for xx in range(pmf.schema.nx):
                    for yy in range(pmf.schema.ny):
                        expect = (m[row][:, None] * w).ravel()
                        assert np.abs(sol.kernel.probs[dd, xx, yy] - expect).max() <= 1e-12
                        row += 1
        done += 1
