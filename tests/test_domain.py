"""Distribution-algebra unit and property tests."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special

from fairmap import (
    Alphabet,
    ApplyMapper,
    Dataset,
    DiscriminationSpec,
    JointPMF,
    Schema,
    TransformKernel,
    Variable,
    conditional,
    estimate_empirical,
    kl_divergence,
    l1_distance,
)
from fairmap.domain import rel_entr, xlogy
from fairmap.errors import (
    EmptyDatasetError,
    InvalidParamsError,
    MissingOutcomeError,
    SupportMismatchError,
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
        ds = Dataset(schema, [0] * 4, [0] * 4, [1] * 4)
        pmf = estimate_empirical(ds)
        assert pmf.mass[0, 0, 1] == 1.0
        assert pmf.mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf.n == 4

    def test_two_record_symmetry(self):
        schema = make_schema(nx=1)
        ds = Dataset(schema, [0, 0], [0, 0], [0, 1])
        pmf = estimate_empirical(ds)
        assert pmf.mass[0, 0, 0] == 0.5
        assert pmf.mass[0, 0, 1] == 0.5

    def test_empty_dataset_rejected(self):
        schema = make_schema(nx=1)
        with pytest.raises(EmptyDatasetError):
            Dataset(schema, [], [], [])

    def test_missing_outcome_rejected(self):
        schema = make_schema(nx=1)
        ds = Dataset(schema, [0, 0], [0, 0], [1, -1])
        with pytest.raises(MissingOutcomeError):
            estimate_empirical(ds)

    def test_out_of_range_index_rejected(self):
        schema = make_schema(nx=1)
        with pytest.raises(InvalidParamsError):
            Dataset(schema, [2], [0], [0])


class TestConditional:
    """``conditional`` divides each row over the last axis by its total."""

    def test_hand_normalized(self):
        # p over (d, y) encoded with a single x value:
        # [[0.4, 0.1], [0.2, 0.3]] -> rows (0.8, 0.2) and (0.4, 0.6)
        pmf = JointPMF(make_schema(nx=1), np.array([[[0.4, 0.1]], [[0.2, 0.3]]]))
        cond, present = conditional(pmf.mass)
        np.testing.assert_allclose(cond[:, 0], [[0.8, 0.2], [0.4, 0.6]], atol=1e-15)
        assert present.all()

    def test_independent(self):
        pd = np.array([0.3, 0.7])
        py = np.array([0.6, 0.4])
        pmf = JointPMF(make_schema(nx=1), (pd[:, None] * py[None, :]).reshape(2, 1, 2))
        cond, _ = conditional(pmf.p_dy())
        np.testing.assert_allclose(cond, [py, py], atol=1e-12)

    def test_one_row_is_the_joint(self, rng):
        pmf = random_pmf(make_schema(nx=2), rng)
        cond, present = conditional(pmf.mass.reshape(1, -1))
        np.testing.assert_allclose(cond[0], pmf.mass.ravel(), atol=1e-15)
        assert present.tolist() == [True]

    def test_zero_mass_rows_absent(self):
        pmf = JointPMF(make_schema(nx=1), np.array([[[0.5, 0.5]], [[0.0, 0.0]]]))
        cond, present = conditional(pmf.mass.reshape(2, -1))
        assert present.tolist() == [True, False]
        assert not cond[1].any()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_marginal_times_conditional_is_joint(self, seed):
        # p(g) p(. | g) = p, with the zero-mass groups of p left out
        rng = np.random.default_rng(seed)
        pmf = random_pmf(make_schema(nx=2), rng, zero_fraction=0.2)
        nd = pmf.schema.nd
        cond, present = conditional(pmf.mass.reshape(nd, -1))
        np.testing.assert_array_equal(present, pmf.p_d() > 0)
        rebuilt = (pmf.p_d()[:, None] * cond).reshape(pmf.mass.shape)
        np.testing.assert_allclose(rebuilt, pmf.mass, atol=1e-12)


# one ulp apart: the KL sum rounds to -2.8e-17
ONE_ULP_APART = (
    np.array([float.fromhex("0x1.745d1745d1746p-4")]
             + [float.fromhex("0x1.745d1745d1746p-3")] * 4
             + [float.fromhex("0x1.745d1745d1745p-3")]),
    np.array([0.5, 1.0, 1.0, 1.0, 1.0, 1.0]) / 5.5,
)


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
    @example(p=ONE_ULP_APART[0], q=ONE_ULP_APART[1])
    def test_pinsker(self, p, q):
        kl = kl_divergence(p, q)
        assert l1_distance(p, q) <= 2.0 * math.sqrt(2.0 * kl) + 1e-9


def divergence_pairs():
    """166,196 (x, y) pairs: uniform, tiny x, log-uniform over the whole
    exponent range, ratios within 1e-6 of 1, ratios of exactly 0.5 and 2
    and one ulp either side, and every pair of special values."""
    rng = np.random.default_rng(33)
    n = 40_000
    x = np.concatenate([rng.random(n), rng.random(n) * 1e-300, np.exp(rng.uniform(-700, 700, n))])
    y = np.concatenate([rng.random(n), rng.random(n), np.exp(rng.uniform(-700, 700, n))])
    near = x[:n] * (1.0 + rng.normal(0.0, 1e-6, n))
    base = rng.random(1_000) + 0.1
    edges = [np.nextafter(f * base, toward) for f in (0.5, 2.0) for toward in (0.0, f * base, 3.0)]
    special_values = [0.0, -0.0, -1.0, -1e-310, 5e-324, 1e-310, sys.float_info.min, 0.5,
                      1.0, 2.0, 1e308, math.inf, -math.inf, math.nan]
    sx, sy = np.meshgrid(special_values, special_values)
    return (np.concatenate([x, x[:n], *edges, sx.ravel()]),
            np.concatenate([y, near, *[base] * len(edges), sy.ravel()]))


def differing_bits(a, b) -> np.ndarray:
    """Indices where a and b differ as float64 bit patterns (NaNs all equal)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return np.flatnonzero((a.view(np.int64) != b.view(np.int64)) & ~(np.isnan(a) & np.isnan(b)))


class TestLibmDivergences:
    """``rel_entr`` and ``xlogy`` call libm through ``math`` and give the
    floats of ``scipy.special``, the oracle here."""

    def test_pairs_cover_both_rel_entr_branches(self):
        x, y = divergence_pairs()
        assert x.size >= 100_000
        with np.errstate(all="ignore"):
            ratio = x / y
        for edge in (0.5, 2.0):
            below = (ratio < edge) & (ratio > edge * (1.0 - 1e-12))
            above = (ratio > edge) & (ratio < edge * (1.0 + 1e-12))
            assert min(below.sum(), (ratio == edge).sum(), above.sum()) >= 1_000
        assert ((ratio > 0.5) & (ratio < 2.0)).sum() > 40_000  # the log1p branch

    def test_rel_entr_matches_scipy(self):
        x, y = divergence_pairs()
        with np.errstate(all="ignore"):
            expected = special.rel_entr(x, y)
        assert differing_bits(rel_entr(x, y), expected).size == 0

    def test_xlogy_matches_scipy(self):
        x, y = divergence_pairs()
        with np.errstate(all="ignore"):
            expected = special.xlogy(x, y)
        assert differing_bits(xlogy(x, y), expected).size == 0

    @settings(max_examples=200, deadline=None)
    @given(simplex(6), simplex(6))
    @example(p=ONE_ULP_APART[0], q=ONE_ULP_APART[1])
    @example(p=np.array([0.3, 0.7]), q=np.array([0.3, 0.7]))
    @example(p=np.array([0.5, 0.5]), q=np.array([0.25, 0.75]))
    @example(p=np.array([1.0, 0.0]), q=np.array([0.0, 1.0]))
    def test_kl_divergence_as_with_scipy(self, p, q):
        # the float kl_divergence returned when it summed scipy's rel_entr
        assert kl_divergence(p, q) == max(float(special.rel_entr(p, q).sum()), 0.0)


class TestInvariants:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_total_mass_preserved(self, seed):
        rng = np.random.default_rng(seed)
        pmf = random_pmf(make_schema_multi(), rng, zero_fraction=0.3)
        assert abs(pmf.mass.sum() - 1.0) <= 1e-12

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
        for variables, sizes, labels, parse in (
                (schema.d_vars, schema.d_sizes, schema.d_labels, schema.d_from_label),
                (schema.x_vars, schema.x_sizes, schema.x_labels, schema.x_from_label)):
            assert len(labels) == np.prod(sizes)
            for flat, label in enumerate(labels):
                parts = np.unravel_index(flat, sizes)
                assert label == "|".join(
                    v.alphabet.categories[i] for v, i in zip(variables, parts))
                assert parse(label) == flat
            for unknown in ("m", "m|r0|young", "m|r2", "young|a|", ""):
                with pytest.raises(InvalidParamsError, match="label"):
                    parse(unknown)
        assert [schema.d_label(d) for d in range(schema.nd)] == list(schema.d_labels)
        assert [schema.x_label(x) for x in range(schema.nx)] == list(schema.x_labels)

    @pytest.mark.parametrize("d_cats, x_cats, named", [
        (("x|y", "z"), ("c", "d"), "race"),
        (("a", "b"), ("c", "b|c"), "job"),
    ])
    def test_separator_in_a_category_is_refused(self, d_cats, x_cats, named):
        # a "|" inside a category makes composite labels ambiguous: the
        # groups ("a|b", "c") and ("a", "b|c") would both read "a|b|c"
        with pytest.raises(InvalidParamsError, match=f"{named}.*contains '\\|'"):
            Schema((Variable(Alphabet("race", d_cats), "D"),
                    Variable(Alphabet("job", x_cats), "X"),
                    Variable(Alphabet("outcome", ("0", "1")), "Y")))


def _valid_probabilities():
    """Name -> (a valid array, the constructor that takes it) for every
    probability array the package builds."""
    schema = make_schema(nx=2)
    pmf = random_pmf(schema, np.random.default_rng(0))
    kernel = np.broadcast_to(pmf.p_xy().ravel(), (2, 2, 2, 4))
    return {
        "JointPMF": (pmf.mass, lambda a: JointPMF(schema, a)),
        "TransformKernel": (kernel, lambda a: TransformKernel(schema, a)),
        "ApplyMapper": (np.full((2, 2, 2), 0.5), lambda a: ApplyMapper(schema, a)),
        "target": (np.array([0.3, 0.7]), lambda a: DiscriminationSpec(target=a)),
    }


def _first_row(a):
    """The first row over the last axis, as a writable view."""
    return a.reshape(-1, a.shape[-1])[0]


def _nan(a):
    _first_row(a)[0] = np.nan
    return a


def _negative(a):
    row = _first_row(a)  # every sum stays at 1
    row[0] += row[1] + 0.1
    row[1] = -0.1
    return a


def _wrong_shape(a):
    return np.append(a, 0.0)  # one more entry, of no mass


def _off_by_1e3(a):
    _first_row(a)[0] += 1e-3
    return a


class TestProbabilityRule:
    """One rule holds for every probability array: the right shape,
    finite nonnegative entries, sums within the site's tolerance of 1."""

    @pytest.mark.parametrize("name", list(_valid_probabilities()))
    @pytest.mark.parametrize("spoil", [_nan, _negative, _wrong_shape, _off_by_1e3])
    def test_bad_array_refused(self, name, spoil):
        valid, build = _valid_probabilities()[name]
        build(valid.copy())
        with pytest.raises(InvalidParamsError):
            build(spoil(np.array(valid)))
