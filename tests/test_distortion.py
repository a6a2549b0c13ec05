"""Distortion metric tests, including the shipped preset rules."""

import numpy as np
import pytest

from fairmap import (
    Dataset,
    DiscriminationSpec,
    DistortionBudget,
    DistortionMetric,
    RuleCondition,
    TableRule,
    assemble,
    audit_distortion,
    distortion_matrix,
    evaluate_distortion,
)
from fairmap.constants import FORBIDDEN
from fairmap.errors import InvalidParamsError
from fairmap.presets import preset_config

from conftest import make_schema_multi, random_pmf


@pytest.fixture(scope="module")
def compas():
    cfg = preset_config("compas")
    return cfg.schema, cfg.metric


@pytest.fixture(scope="module")
def adult():
    cfg = preset_config("adult")
    return cfg.schema, cfg.metric, cfg.budget


def _compas_cell(schema, age, charge, priors, y):
    x = int(np.ravel_multi_index((age, charge, priors), schema.x_sizes))
    return (x, y)


class TestCompasMetric:
    def test_identity_is_free_everywhere(self, compas):
        schema, metric = compas
        delta = distortion_matrix(metric, schema)
        assert np.abs(np.diagonal(delta)).max() == 0.0

    def test_recidivism_increase_forbidden(self, compas):
        schema, metric = compas
        frm = _compas_cell(schema, 0, 0, 0, 0)
        to = _compas_cell(schema, 0, 0, 0, 1)
        assert evaluate_distortion(metric, schema, frm, to) >= FORBIDDEN

    def test_age_jump_plus_recidivism_drop_is_five(self, compas):
        # one age-category jump (1) and lowering recidivism (2): 1^2 + 2^2
        schema, metric = compas
        frm = _compas_cell(schema, 0, 0, 0, 1)
        to = _compas_cell(schema, 1, 0, 0, 0)
        assert evaluate_distortion(metric, schema, frm, to) == 5.0

    def test_charge_degree_change_costs_four(self, compas):
        schema, metric = compas
        frm = _compas_cell(schema, 1, 0, 1, 0)
        to = _compas_cell(schema, 1, 1, 1, 0)
        assert evaluate_distortion(metric, schema, frm, to) == 4.0

    def test_two_category_jump_forbidden(self, compas):
        schema, metric = compas
        frm = _compas_cell(schema, 0, 0, 0, 0)
        to = _compas_cell(schema, 2, 0, 0, 0)
        assert evaluate_distortion(metric, schema, frm, to) >= FORBIDDEN
        frm = _compas_cell(schema, 0, 0, 0, 1)
        to = _compas_cell(schema, 0, 0, 2, 1)
        assert evaluate_distortion(metric, schema, frm, to) >= FORBIDDEN

    def test_matrix_matches_scalar_path(self, compas):
        schema, metric = compas
        delta = distortion_matrix(metric, schema)
        rng = np.random.default_rng(7)
        ncell = schema.nx * schema.ny
        for _ in range(200):
            i, j = rng.integers(ncell, size=2)
            frm = (int(i) // 2, int(i) % 2)
            to = (int(j) // 2, int(j) % 2)
            assert delta[i, j] == evaluate_distortion(metric, schema, frm, to)


def test_sum_combiner_scalar_path_matches_matrix():
    # the penalties of each feature and of the outcome add up unsquared
    schema = make_schema_multi()
    rng = np.random.default_rng(11)
    tables = []
    for var in schema.x_vars:
        table = rng.uniform(0.1, 3.0, size=(len(var.alphabet),) * 2)
        np.fill_diagonal(table, 0.0)
        tables.append(table)
    y_table = np.array([[0.0, 2.0], [0.5, 0.0]])
    metric = DistortionMetric("per_attribute", x_tables=tuple(tables), y_table=y_table,
                              combiner="sum")
    delta = distortion_matrix(metric, schema)
    frm, to = (int(np.ravel_multi_index((2, 1), schema.x_sizes)), 1), (0, 0)
    assert evaluate_distortion(metric, schema, frm, to) == (
        tables[0][2, 0] + tables[1][1, 0] + 0.5)
    ncell = schema.nx * schema.ny
    for i in range(ncell):
        for j in range(ncell):
            assert delta[i, j] == evaluate_distortion(metric, schema, divmod(i, 2),
                                                      divmod(j, 2))


def _adult_cell(schema, age, edu, y):
    return (int(np.ravel_multi_index((age, edu), schema.x_sizes)), y)


class TestAdultMetric:
    def test_identity_free(self, adult):
        schema, metric, _ = adult
        delta = distortion_matrix(metric, schema)
        assert np.abs(np.diagonal(delta)).max() == 0.0

    def test_income_decrease_alone_costs_one(self, adult):
        schema, metric, _ = adult
        frm = _adult_cell(schema, 3, 9, 1)
        to = _adult_cell(schema, 3, 9, 0)
        assert evaluate_distortion(metric, schema, frm, to) == 1.0
        # education up one year keeps it in the small-move class
        to = _adult_cell(schema, 3, 10, 0)
        assert evaluate_distortion(metric, schema, frm, to) == 1.0

    def test_decade_move_costs_two_regardless_of_income(self, adult):
        schema, metric, _ = adult
        for y_to in (0, 1):
            frm = _adult_cell(schema, 3, 9, 1)
            to = _adult_cell(schema, 4, 9, y_to)
            assert evaluate_distortion(metric, schema, frm, to) == 2.0
            to = _adult_cell(schema, 2, 10, y_to)
            assert evaluate_distortion(metric, schema, frm, to) == 2.0

    def test_large_moves_cost_three(self, adult):
        schema, metric, _ = adult
        frm = _adult_cell(schema, 3, 9, 0)
        assert evaluate_distortion(metric, schema, frm, _adult_cell(schema, 5, 9, 0)) == 3.0
        assert evaluate_distortion(metric, schema, frm, _adult_cell(schema, 3, 8, 0)) == 3.0
        assert evaluate_distortion(metric, schema, frm, _adult_cell(schema, 3, 11, 0)) == 3.0

    def test_income_increase_alone_is_free(self, adult):
        schema, metric, _ = adult
        frm = _adult_cell(schema, 3, 9, 0)
        to = _adult_cell(schema, 3, 9, 1)
        assert evaluate_distortion(metric, schema, frm, to) == 0.0

    def test_matrix_matches_scalar_path(self, adult):
        schema, metric, _ = adult
        delta = distortion_matrix(metric, schema)
        rng = np.random.default_rng(11)
        ncell = schema.nx * schema.ny
        for _ in range(300):
            i, j = rng.integers(ncell, size=2)
            frm = (int(i) // 2, int(i) % 2)
            to = (int(j) // 2, int(j) % 2)
            assert delta[i, j] == evaluate_distortion(metric, schema, frm, to)

    def test_thresholds_separate_the_three_levels(self, adult):
        _, _, budget = adult
        thresholds = [t for t, _ in budget.pairs]
        budgets = [b for _, b in budget.pairs]
        assert thresholds == [0.9, 1.9, 2.9]
        assert budgets == [0.1, 0.05, 0.0]


def _per_attribute(age=None, job=None):
    """A metric over ``make_schema_multi``: ``age`` sets entries of its
    3x3 table, ``job`` replaces its 2x2 table."""
    age_table = np.zeros((3, 3))
    for (i, j), value in (age or {}).items():
        age_table[i, j] = value
    return DistortionMetric(
        "per_attribute",
        x_tables=(age_table, np.zeros((2, 2)) if job is None else job),
        y_table=np.zeros((2, 2)),
    )


class TestValidation:
    def test_nonzero_identity_rejected(self):
        schema = make_schema_multi()
        bad = DistortionMetric(
            "per_attribute",
            x_tables=(np.ones((3, 3)), np.zeros((2, 2))),
            y_table=np.zeros((2, 2)),
        )
        with pytest.raises(InvalidParamsError):
            distortion_matrix(bad, schema)

    def test_negative_penalty_rejected(self):
        schema = make_schema_multi()
        t = np.zeros((3, 3))
        t[0, 1] = -1.0
        bad = DistortionMetric(
            "per_attribute",
            x_tables=(t, np.zeros((2, 2))),
            y_table=np.zeros((2, 2)),
        )
        with pytest.raises(InvalidParamsError):
            distortion_matrix(bad, schema)

    @pytest.mark.parametrize("metric, message", [
        (_per_attribute(age={(0, 1): np.nan}), "penalty is negative or NaN"),
        (_per_attribute(age={(0, 1): -1.0}), "penalty is negative or NaN"),
        (_per_attribute(job=np.zeros((3, 3))), "table for 'job' must be 2x2"),
        (DistortionMetric("rule_table", rules=(
            TableRule(1.0, if_all=(RuleCondition("yy", abs_jump=1),)),)),
         "rule condition on unknown 'yy'"),
        (_per_attribute(age={(1, 1): 1.0}), "identity transitions must cost 0"),
    ], ids=["nan", "negative", "shape", "unknown_var", "identity"])
    def test_library_refuses_what_the_config_path_refuses(self, rng, metric, message):
        # the assembler once solved the first four: a NaN penalty to an
        # "optimal" l1 kernel with certificate nan, a 3x3 table for a
        # 2-category feature cut to its top-left block, "yy" read as the
        # outcome
        schema = make_schema_multi()
        spec = DiscriminationSpec(mode="pairwise", epsilon=0.5)
        budget = DistortionBudget("expected", c=1.0)
        with pytest.raises(InvalidParamsError, match=message):
            distortion_matrix(metric, schema)
        with pytest.raises(InvalidParamsError, match=message):
            assemble(random_pmf(schema, rng), spec, metric, budget, "l1")
        ds = Dataset(schema, np.zeros(3, int), np.arange(3), np.zeros(3, int))
        with pytest.raises(InvalidParamsError, match=message):
            audit_distortion(ds, ds, metric)

    def test_budget_threshold_ordering(self):
        with pytest.raises(InvalidParamsError):
            DistortionBudget("thresholded", pairs=((1.0, 0.1), (0.5, 0.05)))
        with pytest.raises(InvalidParamsError):
            DistortionBudget("thresholded", pairs=((0.5, 0.05), (1.0, 0.1)))

    def test_negative_threshold_rejected(self):
        # every distortion is >= 0, so a zero budget above a negative
        # threshold would pin every entry, the identity's too
        with pytest.raises(InvalidParamsError, match="nonnegative"):
            DistortionBudget("thresholded", pairs=((-1.0, 0.0),))
        with pytest.raises(InvalidParamsError, match="nonnegative"):
            DistortionBudget("thresholded", pairs=((-0.5, 0.2), (1.0, 0.1)))
        DistortionBudget("thresholded", pairs=((0.0, 0.0),))

    def test_other_modes_field_refused(self):
        # the expected mode would drop the pairs, the thresholded mode
        # would keep an unused c
        with pytest.raises(InvalidParamsError, match="not pairs"):
            DistortionBudget("expected", c=0.5, pairs=((1.0, 0.1),))
        with pytest.raises(InvalidParamsError, match="not c"):
            DistortionBudget("thresholded", c=0.5, pairs=((1.0, 0.1),))

    def test_negative_budget_rejected(self):
        with pytest.raises(InvalidParamsError):
            DistortionBudget("expected", c=-0.1)

    def test_infinite_cell_budget_rejected(self):
        # an infinite row bound leaves the l1 certificate NaN and stalls KL;
        # a NaN cell still marks a cell without a budget
        cgrid = np.full((2, 3, 2), 0.5)
        cgrid[1, 2, 0] = np.nan
        DistortionBudget("expected", c=cgrid)
        cgrid[0, 1, 1] = np.inf
        with pytest.raises(InvalidParamsError, match="infinite"):
            DistortionBudget("expected", c=cgrid)
        with pytest.raises(InvalidParamsError, match="infinite"):
            DistortionBudget("thresholded", pairs=((0.5, cgrid),))


class TestBudgetCells:
    """Both modes are one list of (threshold, per-cell budget) pairs."""

    SHAPE = (2, 3, 2)

    def test_expected_mode_is_the_pair_none_c(self):
        budget = DistortionBudget("expected", c=0.4)
        assert budget.pairs == ((None, 0.4),) and budget.c == 0.4
        [(t, grid)] = budget.cells(self.SHAPE)
        assert t is None
        assert grid.shape == self.SHAPE and (grid == 0.4).all()

    def test_per_cell_arrays_pass_through(self):
        cgrid = np.arange(12.0).reshape(self.SHAPE)
        [(t, grid)] = DistortionBudget("expected", c=cgrid.tolist()).cells(self.SHAPE)
        assert t is None and np.array_equal(grid, cgrid)
        budget = DistortionBudget("thresholded", pairs=((0.5, cgrid), (1.5, 0.0)))
        [(t1, g1), (t2, g2)] = budget.cells(self.SHAPE)
        assert (t1, t2) == (0.5, 1.5)
        assert np.array_equal(g1, cgrid) and (g2 == 0.0).all()

    @pytest.mark.parametrize("budget", [
        DistortionBudget("expected", c=np.zeros((2, 3))),
        DistortionBudget("thresholded", pairs=((0.5, 0.1), (1.0, np.zeros((3, 2, 2))))),
    ], ids=["expected", "thresholded"])
    def test_wrong_shape_refused(self, budget):
        with pytest.raises(InvalidParamsError, match="shape"):
            budget.cells(self.SHAPE)
