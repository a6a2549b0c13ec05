"""The identity kernel's basis, from which every LP that is handed no
basis starts: its shape on every LP of random programs, cold solves that
agree with reference LPs solved through ``linprog``, and factorized
programs, whose anchor is not 0/1 and whose l1 blocks are checked
against the same reference LPs."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmap import DistortionBudget, assemble, optimizer
from fairmap.constants import DEFAULT_TOL, TIE_BREAK_WEIGHT
from fairmap.errors import InvalidParamsError
from fairmap.optimizer import sof_solve
from fairmap.solver import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    _highs,
    _LPModel,
    solve_kl,
    solve_tv,
)

from conftest import scipy_csr
from test_kl_model import cold_kelley, cold_lp
from test_properties import random_instance
from test_sof import raise_forbidden_metric, sof_instance

BASIC = _highs.HighsBasisStatus.kBasic


@pytest.fixture
def identity_bases(monkeypatch):
    """(model, basis, HiGHS's row count then) of every identity basis
    built while the test runs."""
    built = []
    identity_basis = _LPModel._identity_basis

    def recorded(model):
        basis = identity_basis(model)
        built.append((model, basis, model.highs.getNumRow()))
        return basis

    monkeypatch.setattr(_LPModel, "_identity_basis", recorded)
    return built


def assert_identity_shape(model, basis, num_row):
    prog = model.prog
    cols = np.array([s == BASIC for s in basis.col_status])
    rows = np.array([s == BASIC for s in basis.row_status])
    assert cols.size == model.highs.getNumCol() and rows.size == num_row
    assert cols.sum() + rows.sum() == rows.size
    # one kernel entry per simplex row, one of the row's largest anchor
    # entries; the simplex rows are nonbasic
    kernel = cols[:prog.n_vars]
    assert (np.add.reduceat(kernel, prog.row_ptr[:-1]) == 1).all()
    top = np.maximum.reduceat(prog.anchor, prog.row_ptr[:-1])
    assert (prog.anchor[kernel] == top).all()
    m = prog.h.size
    simplex = slice(m + model.n_given_rows, m + model.n_given_rows + prog.n_rows)
    assert not rows[simplex].any()
    assert rows[:m].all()


def reference(prog, objective):
    """The status and optimum (tie-break included) of ``prog`` by LPs
    solved cold through ``linprog``: one l1 LP, with two rows per image
    cell for |p_j - (A k)_j|, or Kelley's loop."""
    if objective == "kl":
        status, kvec, value, _ = cold_kelley(prog)
        return status, (value + prog.tie_term(kvec) if status == STATUS_OPTIMAL else None)
    n_img, A = prog.p_ref.size, scipy_csr(prog.A)
    eye = sp.identity(n_img, format="csr")
    res, _ = cold_lp(prog, -TIE_BREAK_WEIGHT * prog.anchor, np.ones(n_img),
                     sp.vstack([sp.hstack([-A, -eye]), sp.hstack([A, -eye])]),
                     np.concatenate([-prog.p_ref, prog.p_ref]))
    if res.status == 2:
        return STATUS_INFEASIBLE, None
    assert res.status == 0, res.message
    return STATUS_OPTIMAL, res.fun + TIE_BREAK_WEIGHT * prog.n_rows


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["l1", "kl"]))
def test_cold_solve_matches_reference_lps(seed, objective):
    prog = assemble(*random_instance(seed), objective).program
    out = (solve_kl if objective == "kl" else solve_tv)(prog)
    status, optimum = reference(prog, objective)
    assert out.status == status
    if status == STATUS_OPTIMAL:
        assert abs(out.objective + prog.tie_term(out.kvec) - optimum) <= DEFAULT_TOL


def test_every_simplex_row_keeps_its_identity_entry():
    # the identity basis and the Lagrangian bound take one entry of every
    # simplex row; no budget may pin a row's identity entry (distortion 0)
    for seed in range(30):
        pmf, spec, metric, expected = random_instance(seed)
        for budget in (expected,
                       DistortionBudget("thresholded", pairs=((0.0, 0.0),)),
                       DistortionBudget("thresholded", pairs=((0.5, 0.3), (1.0, 0.0)))):
            problem = assemble(pmf, spec, metric, budget, "l1")
            layout = problem.layout
            identity = (np.arange(layout.n_rows) * layout.row_dim
                        + layout.x * layout.schema.ny + layout.y)
            assert np.isin(identity, problem.free).all()
            assert (np.diff(problem.program.row_ptr) > 0).all()
    # a zero budget above a negative threshold would pin every entry
    with pytest.raises(InvalidParamsError, match="nonnegative"):
        DistortionBudget("thresholded", pairs=((-1.0, 0.0),))


def test_basis_shape_on_every_lp(identity_bases):
    # random programs, feasible and not, reach all four LPs; every
    # identity basis is accepted (setBasis returns kOk, or the solve raises)
    for seed in range(12):
        for objective in ("l1", "kl"):
            prog = assemble(*random_instance(seed), objective).program
            (solve_kl if objective == "kl" else solve_tv)(prog)
    names = {model.name for model, _, _ in identity_bases}
    assert names == {"l1 LP", "phase-1 LP", "KL start LP", "cut LP"}
    for model, basis, num_row in identity_bases:
        assert_identity_shape(model, basis, num_row)
        if model.name == "cut LP":
            # its q and t columns are basic, its link rows and the tangent
            # rows it gained before its first run tight
            prog, linked = model.prog, model.prog.h.size + model.n_given_rows
            assert all(s == BASIC for s in basis.col_status[prog.n_vars:])
            tight = basis.row_status[prog.h.size:linked] + basis.row_status[
                linked + prog.n_rows:]
            assert len(tight) == 2 * model.n_given_rows
            assert not any(s == BASIC for s in tight)


@pytest.mark.parametrize("objective", ["l1", "kl"])
@pytest.mark.parametrize("strategy", ["fix_conditional", "alternating"])
def test_factorized_programs_start_from_their_largest_anchor(identity_bases, objective,
                                                              strategy):
    # the substituted programs' anchors are not 0/1; this instance once
    # broke HiGHS on a rounding residue in its matrix
    pmf, spec, metric, budget = sof_instance(np.random.default_rng(0), eps=0.1, c=0.6, nx=4)
    sol = sof_solve(assemble(pmf, spec, metric, budget, objective=objective), strategy)
    assert sol.status in (STATUS_OPTIMAL, STATUS_INFEASIBLE)
    fractional = [built for built in identity_bases
                  if not np.isin(built[0].prog.anchor, (0.0, 1.0)).all()]
    assert fractional
    for built in fractional:
        assert_identity_shape(*built)


# (seed, epsilon, c, nx, forbidden outcome raise) of ``sof_instance``s
# whose blocks reach optimal l1 LPs; a forbidden raise adds pin rows
SOF_L1_CASES = [
    (0, 0.5, 1.5, 2, False),
    (3, 0.3, 0.6, 3, False),
    (0, 0.1, 0.6, 4, False),
    (0, 0.5, 1.5, 2, True),
    (2, 0.5, 1.5, 2, True),
]


@pytest.mark.parametrize("strategy", ["fix_conditional", "alternating"])
@pytest.mark.parametrize("seed,eps,c,nx,forbidden", SOF_L1_CASES)
def test_factorized_l1_blocks_match_reference_lps(monkeypatch, strategy, seed, eps, c, nx,
                                                  forbidden):
    # the l1 LP has one row per image cell; on an m- or w-block with pin
    # rows the column sums of A differ within a simplex row, and the
    # optimum and the certificate must still be exact
    solved = []

    def recorded(prog, **kwargs):
        solved.append((prog, solve_tv(prog, **kwargs)))
        return solved[-1][1]

    monkeypatch.setattr(optimizer, "solve_tv", recorded)
    pmf, spec, metric, budget = sof_instance(np.random.default_rng(seed), eps=eps, c=c, nx=nx)
    if forbidden:
        metric = raise_forbidden_metric(pmf.schema)
    sof_solve(assemble(pmf, spec, metric, budget, objective="l1"), strategy)
    optimal = []
    for prog, out in solved:
        status, optimum = reference(prog, "l1")
        assert out.status == status
        if status == STATUS_OPTIMAL:
            assert abs(out.objective + prog.tie_term(out.kvec) - optimum) <= 1e-9
            assert out.certificate <= 1e-9
            optimal.append(any(label.startswith("pin ") for label in prog.labels))
    if strategy == "alternating":
        assert len(optimal) >= 3
        assert all(optimal) if forbidden else not any(optimal)
