"""Property tests over random small instances with zero-mass cells, in all
three discrimination modes: the KL and l1 objectives share one feasible
set, an epsilon sweep's objective never increases and its warm-started
points agree with cold solves, a handed basis shortens the first LP, the
Lagrangian bound never exceeds a solved optimum, and records sampled
through a solved kernel follow its pushforward.

Some feasible instances leave KL infinite on the whole feasible set (every
feasible kernel zeroes a populated cell; a pairwise bound against a group
pinned to one outcome does it).  ``solve_kl`` returns the status
``infinite_objective`` for them, naming the cell, and the tests check that
cause instead of leaving such instances out."""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmap import (
    Dataset,
    DiscriminationSpec,
    DistortionBudget,
    DistortionMetric,
    assemble,
    derive_apply_kernel,
    estimate_empirical,
    pushforward_xy,
    solve,
    sweep_epsilon,
    transform_apply,
    transform_train,
)
from fairmap import solver
from fairmap._csr import vstack, zeros
from fairmap.solver import (
    STATUS_INFEASIBLE,
    STATUS_INFINITE,
    STATUS_OPTIMAL,
    lagrangian_bound,
    solve_kl,
    solve_tv,
)

from conftest import make_schema, random_pmf

MODES = ("target", "pairwise", "conditional")


def random_instance(seed: int):
    """Two or three groups, one or two feature values, a quarter of the
    input cells at zero mass, finite flip costs and per-cell expected
    budgets (a fifth of them zero).  Target and conditional modes get an
    explicit target, so no default target can hit zero."""
    rng = np.random.default_rng(seed)
    nx, nd = int(rng.integers(1, 3)), int(rng.integers(2, 4))
    pmf = random_pmf(make_schema(nx=nx, nd=nd), rng, zero_fraction=0.25)
    mode = MODES[seed % 3]
    kw = {}
    if mode != "pairwise":
        p1 = float(rng.uniform(0.2, 0.8))
        kw["target"] = np.array([1.0 - p1, p1])
    if mode == "conditional":
        kw.update(condition_on=("feat",), min_cell_count=0)
    spec = DiscriminationSpec(mode=mode, epsilon=float(rng.uniform(0.0, 0.6)), **kw)
    x_table = rng.uniform(0.5, 2.0, size=(nx, nx))
    np.fill_diagonal(x_table, 0.0)
    y_table = np.array([[0.0, rng.uniform(0.5, 2.0)], [rng.uniform(0.5, 2.0), 0.0]])
    metric = DistortionMetric("per_attribute", x_tables=(x_table,),
                              y_table=y_table, combiner="sum")
    c = rng.uniform(0.0, 1.0, size=(nd, nx, 2))
    c[rng.random(c.shape) < 0.2] = 0.0
    return pmf, spec, metric, DistortionBudget("expected", c=c)


INFINITE_SEED = 142  # a pairwise instance with KL infinite everywhere


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(INFINITE_SEED)
def test_kl_and_l1_agree_on_feasibility(seed):
    pmf, spec, metric, budget = random_instance(seed)
    l1 = solve(assemble(pmf, spec, metric, budget, "l1"))
    assert l1.status in (STATUS_OPTIMAL, STATUS_INFEASIBLE)
    kl = solve(assemble(pmf, spec, metric, budget, "kl"))
    if kl.status == STATUS_INFINITE:
        # feasible, with KL infinite everywhere: the l1 optimum must
        # zero a populated cell as well, and the named cell is one that
        # the data populates and the KL start leaves empty
        assert l1.status == STATUS_OPTIMAL
        assert pushforward_xy(pmf, l1.kernel)[pmf.p_xy() > 0].min() <= 1e-9
        assert kl.objective == float("inf")
        schema = pmf.schema
        named = {
            f"x={schema.x_label(x)} y={schema.y_label(y)}": (x, y)
            for x in range(schema.nx) for y in range(schema.ny)
        }
        cell = named[kl.diagnostics["uncovered_cell"]]
        assert pmf.p_xy()[cell] > 0
        assert pushforward_xy(pmf, kl.kernel)[cell] <= 1e-9
        return
    assert kl.status == l1.status


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
@example(INFINITE_SEED)
def test_sweep_is_monotone_nonincreasing(seed):
    pmf, spec, metric, budget = random_instance(seed)
    grid = np.sort(np.random.default_rng(seed + 1).uniform(0.0, 0.8, size=3))
    for objective in ("l1", "kl"):
        problem = assemble(pmf, spec, metric, budget, objective)
        result = sweep_epsilon(problem, grid)
        assert len(result.entries) == grid.size
        # a point's LPs start from the bases the looser points left; each
        # entry must still be what a cold solve at its epsilon certifies
        for entry in result.entries:
            cold = solve(problem.with_epsilon(entry.epsilon))
            assert entry.status == cold.status
            if cold.status == STATUS_OPTIMAL:
                assert abs(entry.objective - cold.objective) <= result.tol
        statuses = [e.status for e in result.entries]
        # feasible sets grow with epsilon, and KL stays finite once it is:
        # an infinite point only comes before every optimal one
        if STATUS_INFINITE in statuses:
            assert objective == "kl"
            last = max(i for i, s in enumerate(statuses) if s == STATUS_INFINITE)
            assert STATUS_OPTIMAL not in statuses[:last]
        assert result.monotone_nonincreasing


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["l1", "kl"]))
def test_lagrangian_bound_never_exceeds_the_optimum(seed, objective):
    # weak duality: L is a bound for any multipliers once lambda is
    # clipped at 0 (and the l1 multipliers to [-1, 1]).  Besides the
    # solver's own multipliers, L is taken at multipliers that an
    # unclipped formula gets wrong: -1 on a side row every kernel meets
    # (0 <= 1), which would lift L by 1, and the solver's multipliers
    # scaled up, which would scale L up with them
    prog = assemble(*random_instance(seed), objective).program
    kl = objective == "kl"
    calls = []

    def recorded(prog, lam, mu, kl):
        calls.append((lam.copy(), mu.copy()))
        return lagrangian_bound(prog, lam, mu, kl)

    with mock.patch.object(solver, "lagrangian_bound", recorded):
        out = (solve_kl if kl else solve_tv)(prog)
    if out.status != STATUS_OPTIMAL:
        return
    assert calls
    upper = out.objective + prog.tie_term(out.kvec)
    wider = replace(prog, G=vstack([prog.G, zeros((1, prog.n_vars))]),
                    h=np.append(prog.h, 1.0), labels=prog.labels + ("always",))
    rng = np.random.default_rng(seed)
    for lam, mu in calls:
        assert lagrangian_bound(prog, lam, mu, kl) <= upper + 1e-12
        scale = rng.uniform(1.5, 4.0)
        drawn = [
            (np.append(lam, -1.0), mu),
            (np.append(scale * lam, 0.0), scale * mu),
            (rng.normal(scale=scale, size=lam.size + 1), rng.normal(scale=scale, size=mu.size)),
        ]
        for lam_r, mu_r in drawn:
            assert lagrangian_bound(wider, lam_r, mu_r, kl) <= upper + 1e-12


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["l1", "kl"]))
def test_handed_basis_starts_the_first_lp_warm(seed, objective):
    # a solve handed the bases of an optimal solve of the same program
    # starts its first LP (the KL start LP, the l1 LP) from an optimum
    def first_lp(sol):
        return sol.diagnostics["simplex_iterations"][0] if objective == "kl" else sol.iterations

    problem = assemble(*random_instance(seed), objective)
    bases = {}
    first = solve(problem, bases=bases)
    name = "KL start LP" if objective == "kl" else "l1 LP"
    assert (name in bases) == (first.status != STATUS_INFEASIBLE)
    if name not in bases:
        return
    cold, warm = first_lp(first), first_lp(solve(problem, bases=bases))
    # the identity kernel's basis is optimal for some LPs (0 iterations
    # either way)
    assert warm < cold or cold == warm == 0


def within_binomial(counts: np.ndarray, probs: np.ndarray) -> bool:
    """Category counts within 5 binomial standard deviations (+1) of n
    draws from ``probs``."""
    n = counts.sum()
    sd = np.sqrt(n * probs * (1.0 - probs))
    return bool((np.abs(counts - n * probs) <= 5.0 * sd + 1.0).all())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_sampled_records_follow_the_pushforward(seed):
    pmf, spec, metric, budget = random_instance(seed)
    sol = solve(assemble(pmf, spec, metric, budget, "l1"))
    # an infeasible status comes with phase 1's kernel, row-stochastic too
    assert sol.status in (STATUS_OPTIMAL, STATUS_INFEASIBLE)
    schema, n = pmf.schema, 3000
    rng = np.random.default_rng(seed)
    cells = rng.choice(pmf.mass.size, size=n, p=pmf.mass.ravel())
    d, x, y = np.unravel_index(cells, pmf.mass.shape)
    records = Dataset(schema, d, x, y)
    # the pushforward of the records' own law: a sum of independent
    # draws, whose spread the binomial one bounds
    empirical = estimate_empirical(records)
    q = pushforward_xy(empirical, sol.kernel)
    train = transform_train(records, sol.kernel, seed)
    counts = np.bincount(train.x * schema.ny + train.y, minlength=q.size)
    assert within_binomial(counts, q.ravel())
    mapper = derive_apply_kernel(sol.kernel, empirical)
    applied = transform_apply(records, mapper, seed)
    assert within_binomial(np.bincount(applied.x, minlength=schema.nx), q.sum(axis=1))
