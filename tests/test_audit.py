"""Audit tests: MAP advantage, estimation-discrimination link,
robustness-bound calculators, distortion summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairmap import (
    Dataset,
    DiscriminationSpec,
    DistortionBudget,
    DistortionMetric,
    JointPMF,
    assemble,
    audit_discrimination,
    audit_distortion,
    audit_utility,
    check_estimation_discrimination,
    cohort_delta_table,
    identity_kernel,
    ratio_drift_bounds,
    map_advantage,
    pushforward_xy,
    robustness_bounds,
    solve,
)
from fairmap.audit import ratio_bound_exponent, small_tau_ceiling
from fairmap.errors import InvalidParamsError, LengthMismatchError

from conftest import make_schema, make_schema_multi, random_pmf


def brute_force_map(joint: np.ndarray) -> float:
    """Best deterministic outcome->group estimator, by enumeration."""
    nd, ny = joint.shape
    best = 0.0
    for assignment in np.ndindex(*([nd] * ny)):
        best = max(best, sum(joint[assignment[y], y] for y in range(ny)))
    return best


class TestMapAdvantage:
    def test_independent_gives_no_advantage(self):
        joint = np.outer([0.3, 0.7], [0.6, 0.4])
        rep = map_advantage(joint)
        assert rep.map_probability == pytest.approx(0.7, abs=1e-12)
        assert rep.advantage == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_uniform(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        rep = map_advantage(joint)
        assert rep.map_probability == 1.0
        assert rep.advantage == 2.0

    def test_frozen_example(self):
        # columns are outcomes: P_c = max(0.4, 0.2) + max(0.1, 0.3) = 0.7
        joint = np.array([[0.4, 0.1], [0.2, 0.3]])
        rep = map_advantage(joint)
        assert rep.map_probability == pytest.approx(0.7, abs=1e-12)
        assert rep.advantage == pytest.approx(1.4, abs=1e-12)
        assert brute_force_map(joint) == pytest.approx(0.7, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_matches_estimator_enumeration(self, nd, seed):
        rng = np.random.default_rng(seed)
        joint = rng.dirichlet(np.ones(nd * 2)).reshape(nd, 2)
        rep = map_advantage(joint)
        assert rep.map_probability == pytest.approx(
            brute_force_map(joint), abs=1e-12
        )
        assert rep.map_probability >= rep.blind_probability - 1e-15
        assert rep.advantage >= 1.0 - 1e-12


class TestEstimationDiscriminationLink:
    def test_zero_j_implies_no_advantage(self):
        joint = np.outer([0.25, 0.75], [0.5, 0.5])
        verdict = check_estimation_discrimination(joint, epsilon=0.0)
        assert not verdict.exceeds
        assert verdict.report.advantage == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_witness(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        verdict = check_estimation_discrimination(joint, epsilon=0.5)
        assert verdict.exceeds
        y, d, j = verdict.witness
        assert j == pytest.approx(1.0, abs=1e-12)
        assert j > 0.5

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_implication_on_random_joints(self, seed, epsilon):
        rng = np.random.default_rng(seed)
        joint = rng.dirichlet(np.ones(6)).reshape(3, 2)
        p_d = joint.sum(axis=1)
        target = joint.sum(axis=0)
        if target.min() <= 1e-9 or p_d.min() <= 1e-9:
            return
        rates = joint / p_d[:, None]
        max_j = np.abs(rates / target[None, :] - 1.0).max()
        verdict = check_estimation_discrimination(joint, epsilon=epsilon)
        if max_j <= epsilon:
            assert verdict.report.advantage <= 1.0 + epsilon + 1e-9
        if verdict.exceeds:
            assert verdict.witness is not None
            assert verdict.witness[2] > epsilon - 1e-12


    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 2**32 - 1))
    def test_witness_matches_loop_reference(self, nd, seed):
        # small integer counts: zero-mass groups, zero target entries and
        # tied distances are frequent
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 3, size=(nd, 2)).astype(float)
        if counts.sum() == 0:
            return
        target = rng.integers(0, 3, size=2) / 2.0
        verdict = check_estimation_discrimination(counts, 0.0, target=target)
        # the first largest distance in (d, y) order
        joint = counts / counts.sum()
        p_d = joint.sum(axis=1)
        best = None
        for d in range(nd):
            for y in (0, 1):
                if p_d[d] > 0 and target[y] > 0:
                    j = abs(joint[d, y] / p_d[d] / target[y] - 1.0)
                    if best is None or j > best[2]:
                        best = (y, d, j)
        assert verdict.witness == (best if verdict.exceeds else None)


class TestRobustnessBounds:
    def test_frozen_constants(self):
        # independently evaluated at 40-digit precision
        b = robustness_bounds(n=10_000, beta=0.05, m=8, c_m=0.1,
                              epsilon=0.1, mu=0.05)
        assert b.tau == pytest.approx(0.006804932035728928, rel=1e-12)
        assert b.h == pytest.approx(0.4518273575956505, rel=1e-12)
        assert b.eps_drift_exact == pytest.approx(0.7282987400277016, rel=1e-12)
        assert b.eps_drift_linearized == pytest.approx(
            0.5970100933552156, rel=1e-12
        )
        assert b.mu_drift == pytest.approx(0.5166452883543620, rel=1e-12)
        assert b.linearization_flagged  # h ~ 0.45 is far from small

    def test_h_decreasing_in_n(self):
        hs = [
            robustness_bounds(n, 0.05, 8, 0.1, 0.1, 0.0).h
            for n in (10**3, 10**4, 10**5)
        ]
        assert hs[0] > hs[1] > hs[2]
        assert hs[0] == pytest.approx(1.220892962497112, rel=1e-12)
        assert hs[2] == pytest.approx(0.16105673872981394, rel=1e-12)

    def test_large_n_limit_recovers_training_guarantees(self):
        b = robustness_bounds(n=10**14, beta=0.05, m=8, c_m=0.1,
                              epsilon=0.1, mu=0.05)
        assert b.tau < 1e-11
        assert b.eps_drift_exact == pytest.approx(0.1, abs=1e-4)
        assert b.mu_drift == pytest.approx(0.05, abs=1e-4)

    def test_validity_flag_from_joint(self):
        joint = np.full((4, 2), 0.125)
        n_small = robustness_bounds(100, 0.05, 8, 0.125, 0.1, 0.0,
                                    joint_dy=joint)
        n_large = robustness_bounds(10**7, 0.05, 8, 0.125, 0.1, 0.0,
                                    joint_dy=joint)
        assert n_small.valid is False  # tau above the small-tau ceiling
        assert n_large.valid is True
        assert n_small.tau_ceiling == pytest.approx(
            0.125 * 0.5 / (3 * 1.5**2), rel=1e-12
        )

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            robustness_bounds(0, 0.05, 8, 0.1, 0.1, 0.0)
        with pytest.raises(InvalidParamsError):
            robustness_bounds(100, 1.5, 8, 0.1, 0.1, 0.0)
        with pytest.raises(InvalidParamsError):
            robustness_bounds(100, 0.05, 1, 0.1, 0.1, 0.0)
        with pytest.raises(InvalidParamsError):
            robustness_bounds(100, 0.05, 8, 0.0, 0.1, 0.0)

    def test_asymptotic_rate_shape(self):
        b1 = robustness_bounds(10**3, 0.05, 8, 0.1, 0.1, 0.0)
        b2 = robustness_bounds(10**5, 0.05, 8, 0.1, 0.1, 0.0)
        assert b1.asymptotic_rate > b2.asymptotic_rate
        assert b2.asymptotic_rate == pytest.approx(
            math.sqrt(math.log(10**5 / 0.05) / 10**5), rel=1e-12
        )


class TestRatioDriftBounds:
    def test_zero_tau_returns_gammas(self):
        iv = ratio_drift_bounds(0.0, 0.2, gamma1=0.5, gamma2=1.5)
        assert iv.low == 0.5
        assert iv.high == 1.5

    def test_frozen_g(self):
        iv = ratio_drift_bounds(0.03, 0.1)
        assert iv.g == pytest.approx(math.sqrt(0.9), rel=1e-14)
        assert iv.g == pytest.approx(0.9486832980505138, rel=1e-12)

    def test_small_tau_warning(self):
        p = np.array([0.1, 0.4, 0.5])
        iv = ratio_drift_bounds(0.5, 0.1, pmf=p)
        assert iv.within_small_tau is False
        iv2 = ratio_drift_bounds(1e-4, 0.1, pmf=p)
        assert iv2.within_small_tau is True

    def test_rejection_sampling_containment(self):
        # perturb p within KL <= tau (tau below the ceiling) and check the
        # ratio interval holds; the reference r is p itself
        rng = np.random.default_rng(42)
        p = np.array([0.2, 0.3, 0.5])
        tau = 0.5 * small_tau_ceiling(p)
        iv = ratio_drift_bounds(tau, float(p.min()), pmf=p)
        assert iv.within_small_tau
        kept = 0
        from fairmap import kl_divergence

        while kept < 1000:
            q = rng.dirichlet(600 * p)
            if kl_divergence(p, q) > tau:
                continue
            kept += 1
            ratios = q / p
            assert (ratios >= iv.low - 1e-12).all()
            assert (ratios <= iv.high + 1e-12).all()

    def test_invalid_params(self):
        with pytest.raises(InvalidParamsError):
            ratio_drift_bounds(-0.1, 0.5)
        with pytest.raises(InvalidParamsError):
            ratio_drift_bounds(0.1, 0.0)


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: check_estimation_discrimination(np.full((2, 2), 0.25), NAN),
    lambda: robustness_bounds(100, 0.05, 8, 0.1, NAN, 0.0),
    lambda: robustness_bounds(100, 0.05, 8, 0.1, 0.1, NAN),
    lambda: ratio_bound_exponent(NAN, 0.2),
    lambda: ratio_drift_bounds(NAN, 0.2),
], ids=["estimation_epsilon", "robustness_epsilon", "robustness_mu",
        "ratio_bound_tau", "ratio_drift_tau"])
def test_nan_fails_the_range_checks(call):
    # a check written as "x < 0" lets NaN through to a verdict or a bound
    # of NaN
    with pytest.raises(InvalidParamsError):
        call()


class TestDiscriminationAudit:
    def test_identity_kernel_reproduces_original_rates(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng)
        spec = DiscriminationSpec(mode="target", epsilon=0.1)
        before = audit_discrimination(pmf, spec)
        after = audit_discrimination(pmf, spec, kernel=identity_kernel(pmf.schema))
        np.testing.assert_allclose(after.rates, before.rates, atol=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5, 6])
    def test_conditional_audit_without_kernel_is_identity_audit(self, seed):
        # the "before" audit of a conditional spec is per segment, as the
        # "after" one is (seed 3 once read 0.338 before against 0.601)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(50, 500))
        pmf = random_pmf(make_schema_multi(), rng, zero_fraction=0.2, n=n)
        for on, count in ((("age",), 0), (("job",), 20), (("age", "job"), 5)):
            spec = DiscriminationSpec(mode="conditional", epsilon=0.1,
                                      condition_on=on, min_cell_count=count)
            before = audit_discrimination(pmf, spec)
            same = audit_discrimination(pmf, spec, kernel=identity_kernel(pmf.schema))
            assert before.segment == same.segment and before.segment
            assert before.max_j == same.max_j

    def test_post_solve_max_j_within_epsilon(self):
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(6):
            pmf = random_pmf(make_schema(nx=1), rng)
            spec = DiscriminationSpec(
                mode="pairwise", epsilon=float(rng.uniform(0.1, 0.5))
            )
            metric = DistortionMetric(
                "per_attribute",
                x_tables=(np.zeros((1, 1)),),
                y_table=np.array([[0.0, 1.0], [1.0, 0.0]]),
                combiner="sum",
            )
            problem = assemble(
                pmf, spec, metric, DistortionBudget("expected", c=0.7), "l1"
            )
            sol = solve(problem)
            if sol.status != "optimal":
                continue
            rep = audit_discrimination(pmf, spec, kernel=sol.kernel)
            assert rep.max_j <= spec.epsilon + 1e-6
            checked += 1
        assert checked >= 3

    def test_conditional_solve_meets_segment_bounds(self):
        # constraints assembled per feature segment must agree with the
        # independently computed segment distances of the solved kernel
        rng = np.random.default_rng(13)
        schema = make_schema(nx=2)
        pmf = random_pmf(schema, rng, n=5000)
        spec = DiscriminationSpec(
            mode="conditional", epsilon=0.25, condition_on=("feat",),
            min_cell_count=20,
        )
        metric = DistortionMetric(
            "per_attribute",
            x_tables=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
            y_table=np.array([[0.0, 1.0], [1.0, 0.0]]),
            combiner="sum",
        )
        problem = assemble(
            pmf, spec, metric, DistortionBudget("expected", c=1.5), "l1"
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        rep = audit_discrimination(pmf, spec, kernel=sol.kernel)
        assert rep.segment
        assert rep.max_j <= 0.25 + 1e-6

    def test_empirical_dataset_source(self, rng):
        schema = make_schema(nx=1)
        ds = Dataset(
            schema,
            rng.integers(2, size=1000),
            np.zeros(1000, int),
            rng.integers(2, size=1000),
        )
        spec = DiscriminationSpec(mode="target", epsilon=0.2)
        rep = audit_discrimination(ds, spec, target=np.array([0.5, 0.5]))
        assert set(rep.per_group) == {(y, d) for y in (0, 1) for d in (0, 1)}


    def test_zero_mass_group_is_skipped_with_a_warning(self):
        joint = np.array([[0.2, 0.3], [0.0, 0.0], [0.1, 0.4]])
        rep = audit_discrimination(joint, DiscriminationSpec(mode="pairwise", epsilon=0.2))
        assert rep.warnings == ("group 1 has zero mass; skipped",)
        np.testing.assert_array_equal(rep.rates, [[0.4, 0.6], [0.0, 0.0], [0.2, 0.8]])
        assert {d for _, d in rep.per_group} == {0, 2}
        assert {(d1, d2) for _, d1, d2 in rep.pairwise} == {(0, 2), (2, 0)}


class TestDistortionAudit:
    def test_identity_transform_all_zero(self, rng):
        schema = make_schema(nx=2)
        n = 300
        ds = Dataset(
            schema,
            rng.integers(2, size=n),
            rng.integers(2, size=n),
            rng.integers(2, size=n),
        )
        metric = DistortionMetric(
            "per_attribute",
            x_tables=(np.array([[0.0, 1.0], [1.0, 0.0]]),),
            y_table=np.array([[0.0, 2.0], [2.0, 0.0]]),
        )
        summary = audit_distortion(ds, ds, metric, thresholds=(0.5, 1.5))
        assert summary.mean == 0.0
        assert summary.max == 0.0
        assert all(v == 0.0 for v in summary.exceedance.values())

    def test_exact_exceedance_rates(self):
        schema = make_schema(nx=1)
        metric = DistortionMetric(
            "per_attribute",
            x_tables=(np.zeros((1, 1)),),
            y_table=np.array([[0.0, 1.0], [3.0, 0.0]]),
            combiner="sum",
        )
        orig = Dataset(schema, np.zeros(4, int), np.zeros(4, int),
                       np.array([0, 0, 1, 1]))
        trans = Dataset(schema, np.zeros(4, int), np.zeros(4, int),
                        np.array([0, 1, 0, 1]))
        summary = audit_distortion(orig, trans, metric, thresholds=(0.5, 2.0))
        # distortions: 0, 1, 3, 0
        assert summary.mean == pytest.approx(1.0)
        assert summary.max == 3.0
        assert summary.exceedance[0.5] == pytest.approx(0.5)
        assert summary.exceedance[2.0] == pytest.approx(0.25)
        assert summary.per_cell_mean[(0, 0, 1)] == pytest.approx(1.5)

    def test_length_mismatch(self, rng):
        schema = make_schema(nx=1)
        a = Dataset(schema, np.zeros(3, int), np.zeros(3, int), np.zeros(3, int))
        b = Dataset(schema, np.zeros(4, int), np.zeros(4, int), np.zeros(4, int))
        metric = DistortionMetric(
            "per_attribute", x_tables=(np.zeros((1, 1)),), y_table=np.zeros((2, 2))
        )
        with pytest.raises(LengthMismatchError):
            audit_distortion(a, b, metric)


class TestUtilityAndCohorts:
    def test_utility_matches_objective(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng)
        kernel = identity_kernel(pmf.schema)
        rep = audit_utility(pmf, kernel)
        assert rep.kl == 0.0
        assert rep.l1 == 0.0

    def test_pushforward_consistency(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng)
        problem = assemble(pmf, DiscriminationSpec(mode="target", epsilon=0.5))
        sol = solve(problem)
        q1 = pushforward_xy(pmf, sol.kernel)
        q2 = problem.pushforward(sol.kernel)
        np.testing.assert_allclose(q1, q2, atol=1e-12)

    def test_identity_cohort_deltas_zero(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng, n=10_000)
        rows = cohort_delta_table(pmf, kernel=identity_kernel(pmf.schema))
        assert rows
        assert all(abs(r.delta) <= 1e-12 for r in rows)

    def test_min_count_filter(self):
        schema = make_schema(nx=2)
        mass = np.array([
            [[0.30, 0.30], [0.001, 0.001]],
            [[0.20, 0.18], [0.009, 0.009]],
        ])
        pmf = JointPMF(schema, mass / mass.sum(), n=1000)
        rows = cohort_delta_table(pmf, kernel=identity_kernel(schema))
        labels = {(r.x_label, r.d_label) for r in rows}
        assert ("x1", "g0") not in labels  # 2 samples only
        assert ("x0", "g0") in labels
