"""Shared fixtures: tiny schemas, random instances, and the brute-force
grid oracle used to check solver optima.

The oracle derives each row's allowed entries from the distortion matrix
and budgets on its own (zero budgets collapse a row to its identity
point; forbidden-level entries are excluded when the budget cannot reach
them), grids the remaining free rows at a fixed step, keeps feasible
points, and refines around the incumbent.  It never consults the solver.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

from fairmap import (
    Alphabet,
    DiscriminationSpec,
    DistortionBudget,
    DistortionMetric,
    JointPMF,
    Schema,
    Variable,
    distortion_matrix,
)
from fairmap.constants import FORBIDDEN


def make_schema(nx: int = 1, nd: int = 2) -> Schema:
    grp = Alphabet("group", tuple(f"g{i}" for i in range(nd)))
    feat = Alphabet("feat", tuple(f"x{i}" for i in range(nx)), ordinal=True)
    out = Alphabet("outcome", ("0", "1"))
    return Schema((Variable(grp, "D"), Variable(feat, "X"), Variable(out, "Y")))


def make_schema_multi() -> Schema:
    """Two D variables and two X variables, for composite-label paths."""
    sex = Alphabet("sex", ("m", "f"))
    race = Alphabet("race", ("r0", "r1"))
    age = Alphabet("age", ("young", "mid", "old"), ordinal=True)
    job = Alphabet("job", ("a", "b"))
    out = Alphabet("outcome", ("0", "1"))
    return Schema(
        (
            Variable(sex, "D"),
            Variable(race, "D"),
            Variable(age, "X"),
            Variable(job, "X"),
            Variable(out, "Y"),
        )
    )


def random_pmf(schema: Schema, rng: np.random.Generator,
               zero_fraction: float = 0.0, n: int | None = None) -> JointPMF:
    shape = (schema.nd, schema.nx, schema.ny)
    mass = rng.gamma(1.0, 1.0, size=shape)
    if zero_fraction > 0:
        mask = rng.random(shape) < zero_fraction
        # never zero everything out
        if mask.all():
            mask.flat[rng.integers(mask.size)] = False
        mass[mask] = 0.0
    return JointPMF(schema, mass / mass.sum(), n=n)


@dataclass
class ToyInstance:
    """A randomized two-group instance small enough to brute-force."""

    pmf: JointPMF
    spec: DiscriminationSpec
    metric: DistortionMetric
    budget: DistortionBudget


def make_toy_instance(rng: np.random.Generator, flavor: str = "flip") -> ToyInstance:
    """Instances with exactly two free kernel rows of two allowed entries.

    flavor "flip": one feature value, rows randomize the outcome only.
    flavor "move": two feature values, outcome increases are forbidden
    and only feature moves within y=0 rows are free (the y=1 rows and one
    y=0 row are pinned by zero budgets).
    """
    if flavor == "flip":
        schema = make_schema(nx=1)
        mass = rng.dirichlet(np.full(4, 1.5)).reshape(2, 1, 2)
        pmf = JointPMF(schema, mass)
        a01, a10 = rng.uniform(0.3, 2.0, size=2)
        metric = DistortionMetric(
            "per_attribute",
            x_tables=(np.zeros((1, 1)),),
            y_table=np.array([[0.0, a01], [a10, 0.0]]),
            combiner="sum",
        )
        cgrid = rng.uniform(0.05, 0.8, size=(2, 1, 2))
        pinned = rng.random(size=(2, 1, 2)) < 0.4
        cgrid[pinned] = 0.0
        free = np.argwhere(~pinned)
        # keep exactly two free rows so the grid stays two-dimensional
        while len(free) > 2:
            kill = rng.integers(len(free))
            cgrid[tuple(free[kill])] = 0.0
            free = np.delete(free, kill, axis=0)
        while len(free) < 2:
            cand = np.argwhere(cgrid == 0.0)
            pick = tuple(cand[rng.integers(len(cand))])
            cgrid[pick] = rng.uniform(0.05, 0.8)
            free = np.argwhere(cgrid > 0)
    else:
        schema = make_schema(nx=2)
        mass = rng.dirichlet(np.full(8, 1.5)).reshape(2, 2, 2)
        pmf = JointPMF(schema, mass)
        px, qx = rng.uniform(0.3, 2.0, size=2)
        metric = DistortionMetric(
            "per_attribute",
            x_tables=(np.array([[0.0, px], [qx, 0.0]]),),
            y_table=np.array([[0.0, FORBIDDEN], [FORBIDDEN, 0.0]]),
            combiner="sum",
        )
        cgrid = np.zeros((2, 2, 2))
        free_rows = [(d, x, 0) for d in range(2) for x in range(2)]
        picks = rng.choice(len(free_rows), size=2, replace=False)
        for p in picks:
            cgrid[free_rows[p]] = rng.uniform(0.1, 1.5)
    eps = float(rng.uniform(0.05, 0.6))
    mode = "target" if rng.random() < 0.5 else "pairwise"
    spec = DiscriminationSpec(mode=mode, epsilon=eps)
    budget = DistortionBudget("expected", c=cgrid)
    return ToyInstance(pmf, spec, metric, budget)


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------


def _row_domain(delta_row: np.ndarray, c: float):
    """Allowed entries and whether the row is pinned to identity."""
    if c == 0.0:
        return None  # identity only
    allowed = np.nonzero(~((delta_row >= FORBIDDEN) & (c < FORBIDDEN)))[0]
    return allowed


def grid_search_oracle(inst: ToyInstance, objective: str = "l1",
                       step: float = 1e-3, refine: bool = True) -> float:
    """Exhaustive grid search over the free kernel rows.

    Requires every free row to expose exactly two allowed entries; the
    remaining simplex coordinate per row is gridded at ``step``.
    Returns the best feasible objective (+inf if no grid point is
    feasible).
    """
    pmf, spec, metric, budget = inst.pmf, inst.spec, inst.metric, inst.budget
    schema = pmf.schema
    ny = schema.ny
    delta = distortion_matrix(metric, schema)
    [(_, cgrid)] = budget.cells((schema.nd, schema.nx, schema.ny))
    p_img = pmf.p_xy().ravel()

    free = []  # (weight, allowed entries, identity entry, c, delta row)
    base_img = np.zeros_like(p_img)
    rates_base = np.zeros((schema.nd, 2))  # fixed contribution to joint (d, yh)
    p_d = pmf.p_d()
    for d in range(schema.nd):
        for x in range(schema.nx):
            for y in range(ny):
                w = pmf.mass[d, x, y]
                if w <= 0:
                    continue
                cell = x * ny + y
                c = float(cgrid[d, x, y])
                dom = _row_domain(delta[cell], c)
                if dom is None:
                    base_img[cell] += w
                    rates_base[d, y] += w
                else:
                    assert len(dom) == 2, "oracle needs 2-entry free rows"
                    free.append((d, w, dom, cell, c, delta[cell]))
    assert len(free) == 2, "oracle instances carry exactly two free rows"

    thetas = np.arange(0.0, 1.0 + step / 2, step)

    def best_over(grid1: np.ndarray, grid2: np.ndarray) -> tuple[float, float, float]:
        t1, t2 = np.meshgrid(grid1, grid2, indexing="ij")
        t1 = t1.ravel()
        t2 = t2.ravel()
        feas = np.ones(t1.size, dtype=bool)
        # per-row distortion budgets
        for t, (d, w, dom, cell, c, drow) in zip((t1, t2), free):
            exp_dist = (1.0 - t) * drow[dom[0]] + t * drow[dom[1]]
            feas &= exp_dist <= c + 1e-12
        # image and group rates
        img = np.tile(base_img, (t1.size, 1))
        joint_dy = np.tile(rates_base, (t1.size, 1, 1))
        for t, (d, w, dom, cell, c, drow) in zip((t1, t2), free):
            img[:, dom[0]] += w * (1.0 - t)
            img[:, dom[1]] += w * t
            joint_dy[:, d, dom[0] % ny] += w * (1.0 - t)
            joint_dy[:, d, dom[1] % ny] += w * t
        rates = joint_dy / p_d[None, :, None]
        if spec.mode == "target":
            target = spec.resolve_target(pmf)
            for d in range(schema.nd):
                for y in range(ny):
                    eps = spec.eps((y, d))
                    feas &= rates[:, d, y] <= (1 + eps) * target[y] + 1e-12
                    feas &= rates[:, d, y] >= (1 - eps) * target[y] - 1e-12
        else:
            for d1 in range(schema.nd):
                for d2 in range(d1 + 1, schema.nd):
                    for y in range(ny):
                        eps = spec.eps((y, d1, d2))
                        feas &= (
                            rates[:, d1, y] <= (1 + eps) * rates[:, d2, y] + 1e-12
                        )
                        feas &= (
                            rates[:, d2, y] <= (1 + eps) * rates[:, d1, y] + 1e-12
                        )
        if not feas.any():
            return float("inf"), float("nan"), float("nan")
        if objective == "l1":
            vals = np.abs(p_img[None, :] - img).sum(axis=1)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(img > 0, p_img[None, :] / np.where(img > 0, img, 1), np.inf)
                terms = np.where(
                    p_img[None, :] > 0,
                    p_img[None, :] * np.log(np.where(ratio > 0, ratio, 1)),
                    0.0,
                )
                vals = terms.sum(axis=1)
                vals[np.any((p_img[None, :] > 0) & (img <= 0), axis=1)] = np.inf
        vals = np.where(feas, vals, np.inf)
        best = int(np.argmin(vals))
        return float(vals[best]), float(t1[best]), float(t2[best])

    val, b1, b2 = best_over(thetas, thetas)
    if not refine or not np.isfinite(val):
        return val
    for zoom_step in (1e-4, 1e-6):
        span = 400 * zoom_step
        g1 = np.clip(np.arange(b1 - span, b1 + span + zoom_step / 2, zoom_step), 0, 1)
        g2 = np.clip(np.arange(b2 - span, b2 + span + zoom_step / 2, zoom_step), 0, 1)
        val2, b1, b2 = best_over(g1, g2)
        val = min(val, val2)
    return val


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def scipy_csr(m) -> sp.csr_matrix:
    """A program matrix (``fairmap._csr.CSR``) as a ``scipy.sparse`` oracle
    built from the record's own arrays."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


BENCH_INPUTS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "inputs.py")


@pytest.fixture(scope="module")
def bench_inputs():
    """``bench/inputs.py``, which writes the benchmark's data files."""
    spec = importlib.util.spec_from_file_location("bench_inputs", BENCH_INPUTS)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(sys.modules, {spec.name: module}):  # for its dataclasses
        spec.loader.exec_module(module)
    return module


# one line per acceptance criterion, shown after the run regardless of
# capture mode; populated by the decorator in test_acceptance.py
ACCEPTANCE_LINES: list[tuple[int, str]] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for _, line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
