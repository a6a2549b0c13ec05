"""Transformation-engine tests: apply-kernel derivation, sampling,
reproducibility, and apply-time budgets."""

import numpy as np
import pytest

from fairmap import (
    Dataset,
    DiscriminationSpec,
    DistortionBudget,
    DistortionMetric,
    JointPMF,
    apply_distortion_bound,
    assemble,
    derive_apply_kernel,
    estimate_empirical,
    identity_kernel,
    pushforward_xy,
    solve,
    transform_apply,
    transform_train,
)
from fairmap.errors import InvalidParamsError, MissingOutcomeError
from fairmap.optimizer import TransformKernel
from fairmap.transform import ApplyMapper, SeedSpec, _philox_uniforms, _sample_categories

from conftest import make_schema, random_pmf


def flip_metric(cost01=1.0, cost10=1.0):
    return DistortionMetric(
        "per_attribute",
        x_tables=(np.zeros((1, 1)),),
        y_table=np.array([[0.0, cost01], [cost10, 0.0]]),
        combiner="sum",
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_are_refused(bad):
    # NaN compares false both ways, so range and row-sum checks alone let
    # it through
    schema = make_schema(nx=2)
    probs = identity_kernel(schema).probs.copy()
    probs[0, 1, 0, 3] = bad
    with pytest.raises(InvalidParamsError, match="non-finite"):
        TransformKernel(schema, probs)
    rows = np.broadcast_to(np.eye(2), (2, 2, 2)).copy()
    rows[1, 0, 1] = bad
    with pytest.raises(InvalidParamsError, match="non-finite"):
        ApplyMapper(schema, rows)


class TestDeriveApplyKernel:
    def test_hand_marginalization(self):
        # y=0 rows go to feature 0, y=1 rows to feature 1; with
        # p(y=1 | x, d) = 0.3 the apply row is (0.7, 0.3)
        schema = make_schema(nx=2)
        probs = np.zeros((2, 2, 2, 4))
        for d in range(2):
            for x in range(2):
                probs[d, x, 0, 0 * 2 + 0] = 1.0
                probs[d, x, 1, 1 * 2 + 1] = 1.0
        kernel = TransformKernel(schema, probs)
        mass = np.zeros((2, 2, 2))
        mass[:, :, 1] = 0.3 / 4
        mass[:, :, 0] = 0.7 / 4
        pmf = JointPMF(schema, mass)
        mapper = derive_apply_kernel(kernel, pmf)
        for d in range(2):
            for x in range(2):
                np.testing.assert_allclose(mapper.rows[d, x], [0.7, 0.3], atol=1e-12)

    def test_outcome_only_kernel_gives_identity_mapper(self, rng):
        # flipping the outcome but never the features sums out to the
        # identity regardless of the outcome conditional
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng)
        probs = np.zeros((2, 2, 2, 4))
        for d in range(2):
            for x in range(2):
                for y in range(2):
                    probs[d, x, y, x * 2 + (1 - y)] = 0.4
                    probs[d, x, y, x * 2 + y] = 0.6
        mapper = derive_apply_kernel(TransformKernel(schema, probs), pmf)
        for d in range(2):
            for x in range(2):
                expect = np.zeros(2)
                expect[x] = 1.0
                np.testing.assert_allclose(mapper.rows[d, x], expect, atol=1e-12)

    def test_unseen_cell_falls_back_to_identity(self, rng):
        schema = make_schema(nx=2)
        mass = np.zeros((2, 2, 2))
        mass[:, 0, :] = 0.25  # feature value 1 never seen
        pmf = JointPMF(schema, mass)
        mapper = derive_apply_kernel(identity_kernel(schema), pmf)
        assert any("identity row" in w for w in mapper.warnings)
        np.testing.assert_allclose(mapper.rows[0, 1], [0.0, 1.0], atol=0)


class TestSampling:
    def test_identity_kernel_reproduces_input(self, rng):
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng)
        ds = Dataset(
            schema,
            rng.integers(2, size=500),
            rng.integers(2, size=500),
            rng.integers(2, size=500),
        )
        out = transform_train(ds, identity_kernel(schema), seed=7)
        assert np.array_equal(out.d, ds.d)
        assert np.array_equal(out.x, ds.x)
        assert np.array_equal(out.y, ds.y)

    def test_point_mass_row_maps_everything_there(self):
        schema = make_schema(nx=2)
        probs = np.zeros((2, 2, 2, 4))
        probs[..., 1 * 2 + 0] = 1.0  # every record becomes (x=1, y=0)
        kernel = TransformKernel(schema, probs)
        ds = Dataset(schema, np.zeros(50, int), np.zeros(50, int), np.ones(50, int))
        out = transform_train(ds, kernel, seed=3)
        assert (out.x == 1).all() and (out.y == 0).all()

    def test_binomial_concentration_on_uniform_row(self):
        schema = make_schema(nx=2)
        probs = np.zeros((2, 2, 2, 4))
        probs[...] = 0.25
        kernel = TransformKernel(schema, probs)
        n = 100_000
        ds = Dataset(schema, np.zeros(n, int), np.zeros(n, int), np.zeros(n, int))
        out = transform_train(ds, kernel, seed=11)
        cells = out.x * 2 + out.y
        freq = np.bincount(cells, minlength=4) / n
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert np.abs(freq - 0.25).max() <= 3 * sigma

    def test_seed_reproducibility_and_permutation(self, rng):
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng)
        # the identity misses this target (its max_j is 0.12), so the
        # kernel must randomize; at a looser epsilon the solver returns
        # the identity and no seed moves anything
        problem = assemble(pmf, DiscriminationSpec(mode="target", epsilon=0.1))
        kernel = solve(problem).kernel
        assert ((kernel.probs > 0) & (kernel.probs < 1)).any()
        n = 400
        ds = Dataset(
            schema,
            rng.integers(2, size=n),
            rng.integers(2, size=n),
            rng.integers(2, size=n),
        )
        out1 = transform_train(ds, kernel, seed=123)
        out2 = transform_train(ds, kernel, seed=123)
        assert np.array_equal(out1.x, out2.x) and np.array_equal(out1.y, out2.y)
        # a different seed moves something
        out3 = transform_train(ds, kernel, seed=124)
        assert not (
            np.array_equal(out1.x, out3.x) and np.array_equal(out1.y, out3.y)
        )
        # permuting records (stream ids travel along) permutes the output
        perm = rng.permutation(n)
        permuted = Dataset(
            schema, ds.d[perm], ds.x[perm], ds.y[perm], stream_ids=ds.stream_ids[perm]
        )
        out_p = transform_train(permuted, kernel, seed=123)
        assert np.array_equal(out_p.x, out1.x[perm])
        assert np.array_equal(out_p.y, out1.y[perm])

    def test_marginal_consistency_against_pushforward(self, rng):
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng)
        problem = assemble(
            pmf,
            DiscriminationSpec(mode="target", epsilon=0.25),
            flip_metric_2x(),
            DistortionBudget("expected", c=0.8),
            objective="l1",
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        n = 100_000
        ridx = rng.choice(8, size=n, p=pmf.mass.ravel())
        d, x, y = np.unravel_index(ridx, (2, 2, 2))
        ds = Dataset(schema, d, x, y)
        out = transform_train(ds, sol.kernel, seed=5)
        emp = np.zeros((2, 2))
        np.add.at(emp, (out.x, out.y), 1.0)
        emp /= emp.sum()
        # the sampled dataset is itself a draw from pmf; compare against
        # the pushforward of its own empirical distribution
        analytic = pushforward_xy(estimate_empirical(ds), sol.kernel)
        assert np.abs(emp - analytic).sum() <= 0.02

    def test_apply_mode_without_outcomes(self, rng):
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng)
        kernel = identity_kernel(schema)
        mapper = derive_apply_kernel(kernel, pmf)
        ds = Dataset(
            schema,
            rng.integers(2, size=100),
            rng.integers(2, size=100),
            np.full(100, -1),
        )
        out = transform_apply(ds, mapper, seed=1)
        assert np.array_equal(out.x, ds.x)
        assert (out.y < 0).all()
        with pytest.raises(MissingOutcomeError):
            transform_train(ds, kernel, seed=1)

    def test_forbidden_transitions_never_sampled(self):
        # recidivism-style: raising the outcome is forbidden-level, so no
        # transformed record may move 0 -> 1
        schema = make_schema(nx=1)
        mass = np.array([[[0.35, 0.15]], [[0.4, 0.1]]])
        pmf = JointPMF(schema, mass)
        problem = assemble(
            pmf,
            DiscriminationSpec(mode="pairwise", epsilon=0.1),
            flip_metric(cost01=1e4, cost10=1.0),
            DistortionBudget("expected", c=0.5),
            objective="kl",
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        rng = np.random.default_rng(0)
        n = 20_000
        ridx = rng.choice(4, size=n, p=pmf.mass.ravel())
        d, x, y = np.unravel_index(ridx, (2, 1, 2))
        ds = Dataset(schema, d, x, y)
        out = transform_train(ds, sol.kernel, seed=21)
        raised = (ds.y == 0) & (out.y == 1)
        assert not raised.any()


def reference_sample(rows, seed, stream_ids):
    """The per-record loop the vectorized sampler replaced: one Philox
    generator per record, one ``searchsorted`` per row."""
    cums = np.cumsum(rows, axis=1)
    out = np.empty(rows.shape[0], dtype=np.int64)
    top = rows.shape[1] - 1
    for i in range(rows.shape[0]):
        u = seed.stream(int(stream_ids[i])).random()
        out[i] = min(int(np.searchsorted(cums[i], u, side="right")), top)
    return out


# sums to 1 but its cumsum ends at 0.9999999999999999
ULPS_SHORT_ROW = np.array([0.3, 0.3, 0.3, 0.1, 0.0, 0.0])


def oracle_rows(rng, n, k=6):
    """Dirichlet rows mixed with point masses, rows with zeros, rows
    whose cumsum ends a few ulps below 1, and rows holding half their
    mass (so the last-index clamp is taken on about half their draws)."""
    rows = rng.dirichlet(np.ones(k), size=n)
    kind = np.arange(n) % 5
    rows[kind == 1] = np.eye(k)[rng.integers(k, size=(kind == 1).sum())]
    zeros = rows[kind == 2]
    zeros[rng.random(zeros.shape) < 0.5] = 0.0
    zeros[:, 0] += 1.0 - zeros.sum(axis=1)
    rows[kind == 2] = zeros
    rows[kind == 3] = ULPS_SHORT_ROW
    rows[kind == 4] *= 0.5
    return rows


class TestSamplerOracle:
    """The array sampler against the per-record loop, exactly."""

    @pytest.mark.parametrize("master", [0, 1, 2**63 + 5, 2**64 - 1, -1])
    def test_matches_per_record_streams(self, master):
        rng = np.random.default_rng(abs(master) % 1000)
        stream_ids = np.concatenate([
            np.arange(200),  # 0 and small ids
            [-1, -2, -(2**63), 2**63 - 1],  # above 2**63 once masked
            rng.integers(-(2**63), 2**63 - 1, size=200, dtype=np.int64),
        ])
        rows = oracle_rows(rng, stream_ids.size)
        assert np.cumsum(ULPS_SHORT_ROW)[-1] < 1.0
        seed = SeedSpec(master)
        uniforms = [seed.stream(int(s)).random() for s in stream_ids]
        assert np.array_equal(_philox_uniforms(master, stream_ids), uniforms)
        drawn = _sample_categories(rows, master, stream_ids, np.arange(stream_ids.size))
        assert np.array_equal(drawn, reference_sample(rows, seed, stream_ids))
        assert (drawn[4::5] == rows.shape[1] - 1).any()

    @pytest.mark.parametrize("master", [3, 2**64 - 1])
    def test_records_sharing_rows(self, master):
        # records in no particular order, several per row, some rows unused:
        # each used row is summed once and its records drawn together
        rng = np.random.default_rng(master % 1000)
        rows = oracle_rows(rng, 60)
        cells = rng.choice(rng.choice(60, size=40, replace=False), size=500)
        stream_ids = rng.integers(-(2**63), 2**63 - 1, size=500, dtype=np.int64)
        assert np.unique(cells).size < 60 and (np.diff(cells) < 0).any()
        drawn = _sample_categories(rows, master, stream_ids, cells)
        assert np.array_equal(
            drawn, reference_sample(rows[cells], SeedSpec(master), stream_ids))


def flip_metric_2x():
    return DistortionMetric(
        "per_attribute",
        x_tables=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
        y_table=np.array([[0.0, 1.0], [1.0, 0.0]]),
        combiner="sum",
    )


class TestApplyBudget:
    def test_uniform_budget_carries_over(self, rng):
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng)
        bound = apply_distortion_bound(DistortionBudget("expected", c=0.5), pmf)
        assert not bound.derived
        assert all(v == pytest.approx(0.5, abs=1e-12) for v in bound.values.values())

    def test_outcome_weighted_average(self):
        schema = make_schema(nx=1)
        mass = np.array([[[0.25, 0.25]], [[0.25, 0.25]]])
        pmf = JointPMF(schema, mass)
        cgrid = np.zeros((2, 1, 2))
        cgrid[:, :, 0] = 0.2
        cgrid[:, :, 1] = 0.6
        bound = apply_distortion_bound(DistortionBudget("expected", c=cgrid), pmf)
        assert bound.values[(0, 0)] == pytest.approx(0.4, abs=1e-12)

    def test_degenerate_outcome_weight(self):
        schema = make_schema(nx=1)
        mass = np.array([[[0.5, 0.0]], [[0.25, 0.25]]])
        pmf = JointPMF(schema, mass)
        cgrid = np.zeros((2, 1, 2))
        cgrid[:, :, 0] = 0.2
        cgrid[:, :, 1] = 0.6
        bound = apply_distortion_bound(DistortionBudget("expected", c=cgrid), pmf)
        assert bound.values[(0, 0)] == pytest.approx(0.2, abs=1e-12)

    def test_thresholded_budgets_flagged_derived(self, rng):
        schema = make_schema(nx=1)
        pmf = random_pmf(schema, rng)
        budget = DistortionBudget("thresholded", pairs=((0.5, 0.1), (1.5, 0.0)))
        bound = apply_distortion_bound(budget, pmf)
        assert bound.derived
        for pairs in bound.values.values():
            assert [t for t, _ in pairs] == [0.5, 1.5]
            assert all(b >= 0 for _, b in pairs)
