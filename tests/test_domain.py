"""Distribution-algebra unit and property tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairmap import (
    Dataset,
    JointPMF,
    condition,
    estimate_empirical,
    kl_divergence,
    l1_distance,
    marginalize,
)
from fairmap.errors import (
    EmptyDatasetError,
    InvalidParamsError,
    MissingOutcomeError,
    SupportMismatchError,
    UnknownVariableError,
)

from conftest import make_schema, make_schema_multi, random_pmf


def simplex(size, min_mass=0.0):
    return (
        st.lists(
            st.floats(min_value=1e-6, max_value=1.0), min_size=size, max_size=size
        )
        .map(lambda xs: np.array(xs) / np.sum(xs))
        .filter(lambda p: p.min() >= min_mass)
    )


class TestEstimation:
    def test_point_mass_from_constant_records(self):
        schema = make_schema(nx=1)
        ds = Dataset.from_records(schema, [(0, 0, 1)] * 4)
        pmf = estimate_empirical(ds)
        assert pmf.mass[0, 0, 1] == 1.0
        assert pmf.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf.n == 4

    def test_two_record_symmetry(self):
        schema = make_schema(nx=1)
        ds = Dataset.from_records(schema, [(0, 0, 0), (0, 0, 1)])
        pmf = estimate_empirical(ds)
        assert pmf.mass[0, 0, 0] == 0.5
        assert pmf.mass[0, 0, 1] == 0.5

    def test_empty_dataset_rejected(self):
        schema = make_schema(nx=1)
        with pytest.raises(EmptyDatasetError):
            Dataset.from_records(schema, [])

    def test_missing_outcome_rejected(self):
        schema = make_schema(nx=1)
        ds = Dataset.from_records(schema, [(0, 0, 1), (0, 0, None)])
        with pytest.raises(MissingOutcomeError):
            estimate_empirical(ds)

    def test_out_of_range_index_rejected(self):
        schema = make_schema(nx=1)
        with pytest.raises(InvalidParamsError):
            Dataset.from_records(schema, [(2, 0, 0)])


class TestMarginalizeCondition:
    def test_marginalize_nothing_is_identity(self, rng):
        pmf = random_pmf(make_schema_multi(), rng)
        names = [v.name for v in pmf.schema.variables]
        marg = marginalize(pmf, names)
        np.testing.assert_allclose(
            marg.mass.ravel(), pmf.mass.ravel(), atol=1e-15
        )

    def test_marginalize_uniform(self):
        schema = make_schema(nx=2)
        pmf = JointPMF(schema, np.full((2, 2, 2), 1 / 8))
        marg = marginalize(pmf, ["group"])
        np.testing.assert_allclose(marg.mass, [0.5, 0.5])

    def test_unknown_variable(self, rng):
        pmf = random_pmf(make_schema(), rng)
        with pytest.raises(UnknownVariableError):
            marginalize(pmf, ["nope"])

    def test_condition_hand_normalized(self):
        # p over (d, y) encoded with a single x value:
        # [[0.4, 0.1], [0.2, 0.3]] -> rows (0.8, 0.2) and (0.4, 0.6)
        schema = make_schema(nx=1)
        mass = np.array([[[0.4, 0.1]], [[0.2, 0.3]]])
        pmf = JointPMF(schema, mass)
        cond = condition(pmf, ["group", "feat"])
        np.testing.assert_allclose(cond.row((0, 0)), [0.8, 0.2], atol=1e-15)
        np.testing.assert_allclose(cond.row((1, 0)), [0.4, 0.6], atol=1e-15)

    def test_condition_independent(self, rng):
        schema = make_schema(nx=1)
        pd = np.array([0.3, 0.7])
        py = np.array([0.6, 0.4])
        pmf = JointPMF(schema, (pd[:, None] * py[None, :]).reshape(2, 1, 2))
        cond = condition(pmf, ["group"])
        for d in range(2):
            np.testing.assert_allclose(cond.row((d,)), py, atol=1e-12)

    def test_condition_empty_given_is_joint(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng)
        cond = condition(pmf, [])
        np.testing.assert_allclose(cond.row(()), pmf.mass.ravel(), atol=1e-15)

    def test_zero_mass_rows_absent(self):
        schema = make_schema(nx=1)
        mass = np.array([[[0.5, 0.5]], [[0.0, 0.0]]])
        pmf = JointPMF(schema, mass)
        cond = condition(pmf, ["group"])
        assert (1,) in cond.absent
        assert (1,) not in cond.rows

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_condition_marginalize_recombine(self, seed):
        rng = np.random.default_rng(seed)
        pmf = random_pmf(make_schema(nx=2), rng, zero_fraction=0.2)
        marg = marginalize(pmf, ["group"])
        cond = condition(pmf, ["group"])
        rebuilt = np.zeros_like(pmf.mass)
        for d in range(2):
            if (d,) in cond.absent:
                assert marg.mass[d] == 0.0
                continue
            rebuilt[d] = (marg.mass[d] * cond.row((d,))).reshape(2, 2)
        np.testing.assert_allclose(rebuilt, pmf.mass, atol=1e-12)


class TestDivergences:
    def test_kl_identity(self):
        p = np.array([0.3, 0.7])
        assert kl_divergence(p, p) == 0.0

    def test_kl_frozen_scalar_value(self):
        # independent scalar oracle: 0.5 ln 2 + 0.5 ln(2/3)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        got = kl_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.1438410362258904, abs=1e-12)

    def test_kl_disjoint_support_infinite(self):
        assert kl_divergence(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == math.inf

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatchError):
            kl_divergence(np.array([1.0]), np.array([0.5, 0.5]))
        with pytest.raises(SupportMismatchError):
            l1_distance(np.array([1.0]), np.array([0.5, 0.5]))

    def test_l1_basics(self):
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        assert l1_distance(p, p) == 0.0
        assert l1_distance(p, q) == pytest.approx(0.5, abs=1e-15)
        assert l1_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    @settings(max_examples=200, deadline=None)
    @given(simplex(5), simplex(5))
    def test_kl_nonnegative_zero_iff_equal(self, p, q):
        kl = kl_divergence(p, q)
        assert kl >= -1e-15
        if np.abs(p - q).max() > 1e-6:
            # Pinsker puts the floor at ||p-q||_1^2 / 2, well above
            # floating-point cancellation at this separation
            assert kl > 1e-13
        if np.array_equal(p, q):
            assert kl == 0.0

    @settings(max_examples=200, deadline=None)
    @given(simplex(4), simplex(4), simplex(4))
    def test_l1_triangle(self, p, q, r):
        assert l1_distance(p, r) <= l1_distance(p, q) + l1_distance(q, r) + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(simplex(4), simplex(4))
    def test_l1_symmetric_and_bounded(self, p, q):
        assert l1_distance(p, q) == pytest.approx(l1_distance(q, p), abs=1e-15)
        assert l1_distance(p, q) <= 2.0 + 1e-12

    @settings(max_examples=200, deadline=None)
    @given(simplex(6), simplex(6))
    # one ulp apart: the KL sum rounds to -2.8e-17
    @example(
        p=np.array([float.fromhex("0x1.745d1745d1746p-4")]
                   + [float.fromhex("0x1.745d1745d1746p-3")] * 4
                   + [float.fromhex("0x1.745d1745d1745p-3")]),
        q=np.array([0.5, 1.0, 1.0, 1.0, 1.0, 1.0]) / 5.5,
    )
    def test_pinsker(self, p, q):
        kl = kl_divergence(p, q)
        assert l1_distance(p, q) <= 2.0 * math.sqrt(2.0 * kl) + 1e-9


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_total_mass_preserved(self, seed):
        rng = np.random.default_rng(seed)
        pmf = random_pmf(make_schema_multi(), rng, zero_fraction=0.3)
        assert abs(pmf.mass.sum() - 1.0) <= 1e-12
        marg = marginalize(pmf, ["sex", "age"])
        assert abs(marg.mass.sum() - 1.0) <= 1e-12

    def test_pmf_rejects_denormalized(self):
        schema = make_schema(nx=1)
        with pytest.raises(InvalidParamsError):
            JointPMF(schema, np.full((2, 1, 2), 0.3))

    def test_immutability(self, rng):
        pmf = random_pmf(make_schema(), rng)
        with pytest.raises(ValueError):
            pmf.mass[0, 0, 0] = 0.5

    def test_composite_labels_roundtrip(self):
        schema = make_schema_multi()
        for d in range(schema.nd):
            assert schema.d_from_label(schema.d_label(d)) == d
        for x in range(schema.nx):
            assert schema.x_from_label(schema.x_label(x)) == x
